package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Canonical scheme names (the paper's figure labels). These used to live
// in package sim; they are defined here so that a scheme and its name
// registration sit in the same package and new write policies can plug
// in without touching the simulator.
const (
	SchemeBaseline   = "baseline"
	SchemeLocAware   = "location-aware"
	SchemeOracle     = "Oracle"
	SchemeSplitReset = "Split-reset"
	SchemeBLP        = "BLP"
	SchemeBasic      = "LADDER-Basic"
	SchemeEst        = "LADDER-Est"
	SchemeEstNoShift = "LADDER-Est-noshift"
	SchemeHybrid     = "LADDER-Hybrid"
)

// SchemeFactory builds one controller's private scheme instance over the
// shared environment. cache configures the LRS-metadata cache for the
// variants that own one; factories for cacheless schemes ignore it.
type SchemeFactory func(env *Env, cache MetaCacheConfig) (Scheme, error)

// schemeRegistry maps scheme names to factories, preserving registration
// order so listings stay in evaluation order.
var schemeRegistry = struct {
	sync.RWMutex
	factories map[string]SchemeFactory
	order     []string
}{factories: make(map[string]SchemeFactory)}

// RegisterScheme adds a write scheme to the registry under its figure
// label. The simulator, laddersim and experiments all resolve schemes
// through this registry, so a registered scheme is immediately runnable
// by name. Registering a duplicate name panics: silently shadowing a
// policy would corrupt cross-scheme comparisons.
func RegisterScheme(name string, factory SchemeFactory) {
	if name == "" || factory == nil {
		panic("core: RegisterScheme requires a name and a factory")
	}
	schemeRegistry.Lock()
	defer schemeRegistry.Unlock()
	if _, dup := schemeRegistry.factories[name]; dup {
		panic(fmt.Sprintf("core: scheme %q registered twice", name))
	}
	schemeRegistry.factories[name] = factory
	schemeRegistry.order = append(schemeRegistry.order, name)
}

// NewScheme instantiates a registered scheme by name. Each memory
// controller needs its own instance (schemes own private metadata
// caches), so callers invoke this once per channel. Lookup is exact
// first, then case-insensitive, so CLI spellings like "ladder-hybrid"
// resolve to the registered figure label. It rejects an env without a
// metrics registry, which holds every count the scheme makes.
func NewScheme(name string, env *Env, cache MetaCacheConfig) (Scheme, error) {
	if env.Metrics == nil {
		return nil, fmt.Errorf("core: scheme %q needs a metrics registry (Env.Metrics is nil)", name)
	}
	schemeRegistry.RLock()
	factory := schemeRegistry.factories[name]
	if factory == nil {
		for reg, f := range schemeRegistry.factories {
			if strings.EqualFold(reg, name) {
				factory = f
				break
			}
		}
	}
	schemeRegistry.RUnlock()
	if factory == nil {
		known := RegisteredSchemes()
		sort.Strings(known)
		return nil, fmt.Errorf("core: unknown scheme %q (registered: %v)", name, known)
	}
	return factory(env, cache)
}

// RegisteredSchemes lists every registered scheme in registration order
// (built-ins first, in the paper's evaluation order).
func RegisteredSchemes() []string {
	schemeRegistry.RLock()
	defer schemeRegistry.RUnlock()
	return append([]string(nil), schemeRegistry.order...)
}

// SchemeRegistered reports whether a name resolves in the registry
// (under the same exact-then-case-insensitive rule as NewScheme).
func SchemeRegistered(name string) bool {
	schemeRegistry.RLock()
	defer schemeRegistry.RUnlock()
	if _, ok := schemeRegistry.factories[name]; ok {
		return true
	}
	for reg := range schemeRegistry.factories {
		if strings.EqualFold(reg, name) {
			return true
		}
	}
	return false
}

// The built-in schemes register at init time, in evaluation order.
func init() {
	RegisterScheme(SchemeBaseline, func(env *Env, _ MetaCacheConfig) (Scheme, error) {
		return NewBaseline(env), nil
	})
	RegisterScheme(SchemeLocAware, func(env *Env, _ MetaCacheConfig) (Scheme, error) {
		return NewLocationAware(env), nil
	})
	RegisterScheme(SchemeOracle, func(env *Env, _ MetaCacheConfig) (Scheme, error) {
		return NewOracle(env), nil
	})
	RegisterScheme(SchemeSplitReset, func(env *Env, _ MetaCacheConfig) (Scheme, error) {
		return NewSplitReset(env), nil
	})
	RegisterScheme(SchemeBLP, func(env *Env, _ MetaCacheConfig) (Scheme, error) {
		return NewBLP(env), nil
	})
	RegisterScheme(SchemeBasic, func(env *Env, cache MetaCacheConfig) (Scheme, error) {
		return NewBasicCache(env, cache)
	})
	RegisterScheme(SchemeEst, func(env *Env, cache MetaCacheConfig) (Scheme, error) {
		return NewEstCache(env, true, cache)
	})
	RegisterScheme(SchemeEstNoShift, func(env *Env, cache MetaCacheConfig) (Scheme, error) {
		return NewEstCache(env, false, cache)
	})
	RegisterScheme(SchemeHybrid, func(env *Env, cache MetaCacheConfig) (Scheme, error) {
		return NewHybridCache(env, cache)
	})
}

package core

import (
	"fmt"
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

// registeredScheme is one registry entry.
type registeredScheme struct {
	name    string
	factory SchemeFactory
}

// schemeRegistry holds the registered schemes in registration order, so
// listings stay in evaluation order.
var schemeRegistry struct {
	sync.RWMutex
	schemes []registeredScheme
}

// RegisterScheme adds a write scheme to the registry under its figure
// label. The simulator, laddersim (single runs and -exp) and the service
// all resolve schemes through this registry, so a registered scheme is
// immediately runnable by name. Names resolve case-insensitively, so
// registering a name that equals a registered one up to case panics:
// silently shadowing a policy would corrupt cross-scheme comparisons.
func RegisterScheme(name string, factory SchemeFactory) {
	if name == "" || factory == nil {
		panic("core: RegisterScheme requires a name and a factory")
	}
	schemeRegistry.Lock()
	defer schemeRegistry.Unlock()
	if reg, dup := lookupScheme(name); dup {
		panic(fmt.Sprintf("core: scheme %q registered twice (as %q)", name, reg.name))
	}
	schemeRegistry.schemes = append(schemeRegistry.schemes, registeredScheme{name, factory})
}

// lookupScheme is the one scheme-name resolver: the registered scheme
// whose name equals name up to case. RegisterScheme keeps names unique
// up to case, so at most one matches. The caller holds schemeRegistry's
// lock.
func lookupScheme(name string) (registeredScheme, bool) {
	for _, reg := range schemeRegistry.schemes {
		if strings.EqualFold(reg.name, name) {
			return reg, true
		}
	}
	return registeredScheme{}, false
}

// resolveScheme returns the registered scheme name resolves to, or an
// error listing the registered names.
func resolveScheme(name string) (registeredScheme, error) {
	schemeRegistry.RLock()
	reg, ok := lookupScheme(name)
	schemeRegistry.RUnlock()
	if !ok {
		return reg, fmt.Errorf("unknown scheme %q (registered: %s)", name, strings.Join(RegisteredSchemes(), " "))
	}
	return reg, nil
}

// SchemeName resolves a scheme name to its registered spelling, so CLI
// and request spellings like "ladder-hybrid" map to the figure label
// "LADDER-Hybrid". It fails for a name no scheme is registered under.
func SchemeName(name string) (string, error) {
	reg, err := resolveScheme(name)
	return reg.name, err
}

// NewScheme instantiates a registered scheme by name (resolved as
// SchemeName does). Each memory controller needs its own instance
// (schemes own private metadata caches), so callers invoke this once per
// channel. It rejects an env without a metrics registry, which holds
// every count the scheme makes.
func NewScheme(name string, env *Env, cache MetaCacheConfig) (Scheme, error) {
	if env.Metrics == nil {
		return nil, fmt.Errorf("core: scheme %q needs a metrics registry (Env.Metrics is nil)", name)
	}
	reg, err := resolveScheme(name)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return reg.factory(env, cache)
}

// RegisteredSchemes lists every registered scheme in registration order
// (built-ins first, in the paper's evaluation order).
func RegisteredSchemes() []string {
	schemeRegistry.RLock()
	defer schemeRegistry.RUnlock()
	names := make([]string, len(schemeRegistry.schemes))
	for i, reg := range schemeRegistry.schemes {
		names[i] = reg.name
	}
	return names
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

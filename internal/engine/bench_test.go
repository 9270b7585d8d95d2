package engine

import "testing"

// BenchmarkEngineStep times one Engine.Step on a run-shaped actor set:
// four cores that want a cycle every few cycles, two controllers whose
// pulses finish every few hundred cycles and report activity, and a
// progress hook. Run with -benchmem: a step allocates nothing.
func BenchmarkEngineStep(b *testing.B) {
	e := New()
	for i := 0; i < 4; i++ {
		e.Add(&strideActor{stride: uint64(3 + i)})
	}
	for i := 0; i < 2; i++ {
		e.Add(&strideActor{stride: uint64(300 + 37*i), active: true})
	}
	e.AddHook(1<<20, func(uint64) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !e.Step() {
			b.Fatal("engine stalled")
		}
	}
}

// strideActor wants a cycle every stride cycles; an active one reports
// activity at each, so the engine also processes the cycle after it.
type strideActor struct {
	stride, next uint64
	active       bool
}

func (a *strideActor) NextEventAt(uint64) uint64 { return a.next }

func (a *strideActor) Advance(now uint64) bool {
	if now < a.next {
		return false
	}
	a.next = now + a.stride
	return a.active
}

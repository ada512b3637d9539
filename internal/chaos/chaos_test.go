package chaos

import (
	"testing"
	"time"
)

// TestNilInjectorIsInert: production code passes nil; every method must
// be a cheap no-op.
func TestNilInjectorIsInert(t *testing.T) {
	var i *Injector
	if i.RequestFault() {
		t.Error("nil RequestFault = true")
	}
	if d := i.KernelDelay(); d != 0 {
		t.Errorf("nil KernelDelay = %v", d)
	}
	if st := i.Stats(); st != (Stats{}) {
		t.Errorf("nil Stats = %+v", st)
	}
}

// TestDeterministicSequences: two injectors with the same config
// produce bit-identical fault sequences — the property every chaos
// test in the serving tier leans on.
func TestDeterministicSequences(t *testing.T) {
	cfg := Config{KernelDelay: 3 * time.Millisecond, ErrorEvery: 7, ErrorBurst: 2}
	a, b := New(cfg), New(cfg)
	for n := 0; n < 200; n++ {
		if af, bf := a.RequestFault(), b.RequestFault(); af != bf {
			t.Fatalf("request %d diverged: %v vs %v", n, af, bf)
		}
		if ak, bk := a.KernelDelay(), b.KernelDelay(); ak != bk {
			t.Fatalf("kernel %d diverged: %v vs %v", n, ak, bk)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestBurstPattern: Every=5, Burst=2 fails exactly calls 0,1 of each
// cycle of five.
func TestBurstPattern(t *testing.T) {
	inj := New(Config{ErrorEvery: 5, ErrorBurst: 2})
	for n := 0; n < 25; n++ {
		fail := inj.RequestFault()
		if want := n%5 < 2; fail != want {
			t.Fatalf("call %d: fail = %v, want %v", n, fail, want)
		}
	}
	if st := inj.Stats(); st.Requests != 25 || st.Errors != 10 {
		t.Errorf("stats = %+v, want 25 requests, 10 errors", st)
	}
}

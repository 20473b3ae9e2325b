package bpred

import (
	"math/rand/v2"
	"testing"
)

// mustGshare and mustBimodal build the tests' valid predictors.
func mustGshare(t *testing.T, bits uint) *Gshare {
	t.Helper()
	g, err := NewGshare(bits)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustBimodal(t *testing.T, bits uint) *Bimodal {
	t.Helper()
	b, err := NewBimodal(bits)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPerfect(t *testing.T) {
	p := NewPerfect()
	for _, actual := range []bool{true, false} {
		if got := p.Predict(0x1000, actual); got != actual {
			t.Errorf("perfect predictor returned %v for actual %v", got, actual)
		}
	}
	p.Update(0x1000, true) // must not panic
}

func TestCounterSaturation(t *testing.T) {
	c := counter(0)
	for i := 0; i < 10; i++ {
		c = c.update(false)
	}
	if c != 0 {
		t.Errorf("counter should saturate at 0, got %d", c)
	}
	for i := 0; i < 10; i++ {
		c = c.update(true)
	}
	if c != 3 {
		t.Errorf("counter should saturate at 3, got %d", c)
	}
	if !c.taken() {
		t.Error("counter 3 should predict taken")
	}
	if counter(1).taken() {
		t.Error("counter 1 should predict not-taken")
	}
}

func TestGshareLearnsAlwaysTaken(t *testing.T) {
	g := mustGshare(t, 12)
	pc := uint64(0x4000)
	for i := 0; i < 100; i++ {
		g.Update(pc, true)
	}
	if !g.Predict(pc, true) {
		t.Error("gshare should predict taken after 100 taken outcomes")
	}
}

func TestGshareLearnsAlternating(t *testing.T) {
	// A strictly alternating branch is learnable through global history.
	g := mustGshare(t, 12)
	pc := uint64(0x4000)
	outcome := func(i int) bool { return i%2 == 0 }
	for i := 0; i < 2000; i++ {
		g.Update(pc, outcome(i))
	}
	correct := 0
	for i := 2000; i < 2200; i++ {
		if g.Predict(pc, outcome(i)) == outcome(i) {
			correct++
		}
		g.Update(pc, outcome(i))
	}
	if correct < 190 {
		t.Errorf("gshare predicted %d/200 of an alternating pattern; want >= 190", correct)
	}
}

func TestGshareBeatsBimodalOnPeriodic(t *testing.T) {
	// A period-4 pattern defeats a bimodal predictor (it just saturates
	// toward taken) but gshare's history disambiguates the phases.
	g := mustGshare(t, 14)
	b := mustBimodal(t, 14)
	pc := uint64(0x4000)
	outcome := func(i int) bool { return i%4 != 3 }
	gc, bc := 0, 0
	for i := 0; i < 8000; i++ {
		o := outcome(i)
		if i >= 4000 {
			if g.Predict(pc, o) == o {
				gc++
			}
			if b.Predict(pc, o) == o {
				bc++
			}
		}
		g.Update(pc, o)
		b.Update(pc, o)
	}
	if gc <= bc {
		t.Errorf("gshare (%d) should beat bimodal (%d) on periodic pattern", gc, bc)
	}
	if gc < 3800 {
		t.Errorf("gshare correct %d/4000, want >= 3800", gc)
	}
}

func TestBimodalLearnsBiased(t *testing.T) {
	b := mustBimodal(t, 10)
	pc := uint64(0x8000)
	for i := 0; i < 50; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc, false) {
		t.Error("bimodal should predict not-taken after training")
	}
}

func TestPredictorValidation(t *testing.T) {
	if _, err := NewGshare(0); err == nil {
		t.Error("gshare bits=0 should fail")
	}
	if _, err := NewGshare(25); err == nil {
		t.Error("gshare bits=25 should fail")
	}
	if _, err := NewBimodal(0); err == nil {
		t.Error("bimodal bits=0 should fail")
	}
	if _, err := NewBimodal(25); err == nil {
		t.Error("bimodal bits=25 should fail")
	}
}

func TestGshareAccuracyOnRandomIsNearBias(t *testing.T) {
	// A pure coin with bias p can be predicted at best ~max(p, 1-p);
	// gshare should achieve close to that, not much worse.
	g := mustGshare(t, 12)
	rng := rand.New(rand.NewPCG(7, 7))
	pc := uint64(0x4000)
	const p = 0.9
	correct, n := 0, 20000
	for i := 0; i < n; i++ {
		o := rng.Float64() < p
		if g.Predict(pc, o) == o {
			correct++
		}
		g.Update(pc, o)
	}
	acc := float64(correct) / float64(n)
	if acc < 0.8 {
		t.Errorf("gshare accuracy %.3f on 90%%-biased coin; want >= 0.8", acc)
	}
}

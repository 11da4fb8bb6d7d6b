package dfs

import (
	"testing"
	"testing/quick"
)

// throttleRig gives direct access to Algorithm 1's state machine.
func throttleRig(t *testing.T) (*FileSystem, *dnView) {
	t.Helper()
	r := newRig(t, ModeMOON, nil)
	return r.fs, r.fs.dn[4] // dedicated node
}

// feed pushes a bandwidth sample of mbps MB/s through Algorithm 1: the
// samples below sit on either side of throttleFloor (58 MB/s) on purpose.
func feed(fs *FileSystem, v *dnView, mbps float64) { fs.throttleStep(v, mbps*1e6) }

func TestThrottleEntersOnPlateauAtSaturation(t *testing.T) {
	fs, v := throttleRig(t)
	// Ramp up past the floor, then plateau: rising but within (1+Tb) of
	// the window average -> saturated.
	for _, bw := range []float64{20, 40, 60, 80, 100, 120} {
		feed(fs, v, bw)
	}
	if v.throttled {
		t.Fatal("throttled during steep ramp")
	}
	// Window avg of the last 6 samples = 70; a sample of 75 is rising
	// (> avg), within 15% and above the floor: plateau at saturation.
	feed(fs, v, 75)
	if !v.throttled {
		t.Fatal("plateau at saturation not throttled")
	}
}

func TestThrottleReleasesOnFall(t *testing.T) {
	fs, v := throttleRig(t)
	for _, bw := range []float64{20, 40, 60, 80, 100, 120} {
		feed(fs, v, bw)
	}
	feed(fs, v, 75) // throttle
	if !v.throttled {
		t.Fatal("setup failed")
	}
	// A sharp fall below (1-Tb)·avg releases.
	feed(fs, v, 1)
	if v.throttled {
		t.Fatal("sharp fall did not release the throttle")
	}
}

func TestThrottleIgnoresIdleLoadBelowFloor(t *testing.T) {
	fs, v := throttleRig(t)
	// Low, noisy traffic: plateaus everywhere, but far below the floor.
	for _, bw := range []float64{5, 6, 5, 7, 6, 5, 6, 6, 5, 7, 6, 6} {
		feed(fs, v, bw)
		if v.throttled {
			t.Fatal("idle-load noise triggered the throttle")
		}
	}
}

func TestThrottleHysteresis(t *testing.T) {
	fs, v := throttleRig(t)
	// Stabilize around 100 then oscillate mildly within ±Tb: once
	// throttled, mild oscillation must not release.
	for i := 0; i < 8; i++ {
		feed(fs, v, 100)
	}
	feed(fs, v, 101)
	if !v.throttled {
		t.Fatal("plateau not detected")
	}
	for _, bw := range []float64{99, 101, 100, 98, 102} {
		feed(fs, v, bw)
		if !v.throttled {
			t.Fatalf("mild oscillation (bw=%v) released the throttle", bw)
		}
	}
}

func TestThrottleWindowBounded(t *testing.T) {
	fs, v := throttleRig(t)
	for i := 0; i < 10000; i++ {
		feed(fs, v, float64(i%37))
	}
	if len(v.bwWindow) > 4*throttleWindow {
		t.Fatalf("window grew unbounded: %d", len(v.bwWindow))
	}
}

// Property: the adaptive degree always satisfies the availability bound or
// hits the clamp, and is monotone in p.
func TestQuickAdaptiveV(t *testing.T) {
	r := newRig(t, ModeMOON, nil)
	fs := r.fs
	set := func(p float64) {
		for i := range fs.pSamples {
			fs.pSamples[i] = p
		}
		fs.pCount = len(fs.pSamples)
	}
	check := func(pPct uint8) bool {
		p := float64(pPct%100) / 100
		set(p)
		v := fs.AdaptiveV()
		if v < 1 || v > fs.cfg.MaxAdaptiveV {
			return false
		}
		if p > 0 && v < fs.cfg.MaxAdaptiveV {
			if 1-pow(p, v) <= fs.cfg.AvailabilityTarget {
				return false
			}
		}
		// Monotonicity: higher p never needs fewer replicas.
		set(p / 2)
		return fs.AdaptiveV() <= v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func pow(p float64, v int) float64 {
	out := 1.0
	for i := 0; i < v; i++ {
		out *= p
	}
	return out
}

// Property: staged files always meet their factor immediately, for any
// sane factor the 4V+2D test cluster can host.
func TestQuickStagedPlacement(t *testing.T) {
	check := func(cursor uint8, d8, v8 uint8) bool {
		d := int(d8 % 3)   // 0..2 dedicated copies
		v := int(v8%4) + 1 // 1..4 volatile copies
		r := newRig(t, ModeMOON, nil)
		r.fs.cursorV = int(cursor) % 6 // vary placement start
		r.fs.cursorD = int(cursor) % 6
		f, err := r.fs.CreateStaged("f", 1000, Reliable, Factor{D: d, V: v})
		if err != nil {
			return false
		}
		gd, gv := r.fs.countLive(f.Blocks[0])
		return gd == d && gv == v
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

package service

import (
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestEventHubDropsWhenFullAndPushRacesSafely: the hub is the metrics sink
// every collector of the daemon pushes into, from the master goroutine and
// from each scenario cell. A Push nobody hears allocates nothing, a
// subscriber whose buffer is full loses frames instead of stalling a Push,
// and Push racing subscribe, unsubscribe and closeAll neither panics nor
// deadlocks (raced in CI).
func TestEventHubDropsWhenFullAndPushRacesSafely(t *testing.T) {
	h := newHub(2)
	if allocs := testing.AllocsPerRun(100, func() { h.Push(metrics.Update{Key: metrics.Key{Name: "unheard"}}) }); allocs != 0 {
		t.Errorf("a Push nobody hears allocates %v times", allocs)
	}
	ch := h.subscribe()
	for i := 0; i < 5; i++ {
		h.Push(metrics.Update{Key: metrics.Key{Name: "x"}, Value: float64(i)})
	}
	if len(ch) != 2 {
		t.Fatalf("a 2-frame subscriber holds %d frames after 5 pushes", len(ch))
	}
	if ev := <-ch; ev.name != "metric" || ev.data != (metrics.Update{Key: metrics.Key{Name: "x"}, Value: 0}) {
		t.Fatalf("first frame %+v, want the first push as a metric frame", ev)
	}
	h.unsubscribe(ch)

	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.Push(metrics.Update{Key: metrics.Key{Name: "race"}, Value: float64(i)})
			}
		}()
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub := h.subscribe()
				for len(sub) > 0 {
					<-sub
				}
				h.unsubscribe(sub)
			}
		}()
	}
	h.closeAll()
	wg.Wait()
	h.closeAll() // idempotent
	if _, open := <-h.subscribe(); open {
		t.Fatal("a subscription after closeAll is open")
	}
}

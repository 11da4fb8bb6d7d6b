package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/metrics"
)

// event is one Server-Sent Events frame: name becomes the `event:` field,
// data the `data:` payload, which the subscriber's own handler encodes as
// JSON — a frame nobody is listening for is never encoded.
type event struct {
	name string
	data any
}

// hub fans events out to /v1/events subscribers, and it is the metrics.Sink
// of the persistent cluster's collector and of every scenario cell. Delivery
// never blocks a run: a subscriber that falls behind its buffer drops
// frames, and with no subscriber a write costs a read lock and nothing else.
type hub struct {
	mu     sync.RWMutex
	buffer int
	closed bool
	subs   map[chan event]struct{}
}

func newHub(buffer int) *hub {
	return &hub{buffer: buffer, subs: make(map[chan event]struct{})}
}

func (h *hub) subscribe() chan event {
	ch := make(chan event, h.buffer)
	h.mu.Lock()
	if h.closed {
		close(ch)
	} else {
		h.subs[ch] = struct{}{}
	}
	h.mu.Unlock()
	return ch
}

func (h *hub) unsubscribe(ch chan event) {
	h.mu.Lock()
	if _, ok := h.subs[ch]; ok {
		delete(h.subs, ch)
		close(ch)
	}
	h.mu.Unlock()
}

// Push offers one instrument write to every subscriber as a metric frame.
func (h *hub) Push(u metrics.Update) { h.broadcast("metric", func() any { return u }) }

// publish offers a submission's status to every subscriber as a job frame.
func (h *hub) publish(sub *submission) { h.broadcast("job", func() any { return sub.status() }) }

// broadcast offers the frame data builds to every subscriber that has room.
// With no subscriber it builds nothing. The read lock keeps every channel
// open under the sends.
func (h *hub) broadcast(name string, data func() any) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if len(h.subs) == 0 {
		return
	}
	ev := event{name: name, data: data()}
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // subscriber full: drop rather than stall the run
		}
	}
}

// closeAll ends every active stream (server shutdown).
func (h *hub) closeAll() {
	h.mu.Lock()
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
	h.mu.Unlock()
}

// handleEvents streams metric and job updates as Server-Sent Events:
// `event: metric` frames carry metrics.Update JSON from running work,
// `event: job` frames carry a submission Status at every transition.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, "unsupported", "response writer cannot stream")
		return
	}
	ch := s.hub.subscribe()
	defer s.hub.unsubscribe(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An initial comment line confirms the stream to clients immediately.
	fmt.Fprintf(w, ": moonbenchd event stream\n\n")
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			data, err := json.Marshal(ev.data)
			if err != nil {
				continue // a value JSON cannot carry (NaN): skip the frame
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

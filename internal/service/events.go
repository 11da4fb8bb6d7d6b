package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// event is one Server-Sent Events frame: name becomes the `event:` field,
// data the JSON `data:` payload.
type event struct {
	name string
	data []byte
}

// hub fans events out to /v1/events subscribers. Like the metrics sink,
// delivery never blocks a run: a subscriber that falls behind its buffer
// drops frames.
type hub struct {
	mu     sync.Mutex
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

// broadcast marshals v once and offers it to every subscriber.
func (h *hub) broadcast(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	ev := event{name: name, data: data}
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // subscriber full: drop rather than stall the run
		}
	}
	h.mu.Unlock()
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
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

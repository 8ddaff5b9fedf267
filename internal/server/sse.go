package server

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// SSE progress streaming for GET /v1/sweep/{id}/events. The stream
// speaks plain Server-Sent Events (text/event-stream): zero client
// dependencies beyond curl -N or a browser EventSource.

// SSE event names (docs/server.md documents each).
const (
	// SSEEventProgress carries a progressEvent snapshot:
	// {"done":D,"skipped":S,"total":T}. Progress is monotone — the
	// stream never goes backwards even though sweep workers report
	// concurrently — but not gap-free: a slow client skips intermediate
	// snapshots rather than stalling the sweep.
	SSEEventProgress = "progress"
	// SSEEventDone terminates the stream of a sweep that produced a
	// report: {"id":...,"datapoints":N,"partial":bool}. partial=true
	// means the report carries a failures block.
	SSEEventDone = "done"
	// SSEEventError terminates the stream of a sweep that produced no
	// report at all: {"id":...,"error":"..."}.
	SSEEventError = "error"
)

// sseDone is the SSEEventDone payload.
type sseDone struct {
	ID         string `json:"id"`
	Datapoints int    `json:"datapoints"`
	Partial    bool   `json:"partial"`
}

// sseError is the SSEEventError payload.
type sseError struct {
	ID    string `json:"id"`
	Error string `json:"error"`
}

// writeSSE emits one event frame and flushes it to the client.
func writeSSE(w http.ResponseWriter, flusher http.Flusher, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	flusher.Flush()
}

// handleSweepEvents is GET /v1/sweep/{id}/events: replay the job's
// current progress snapshot so a late client starts from truth rather
// than zero, write the snapshot again each time it changes, and close
// with the final snapshot and a terminal done/error frame. The handler
// never holds anything the sweep waits on: a client that stops reading
// blocks only this handler's Write, and once it drains the handler
// re-reads the latest snapshot, skipping the ones it missed. Attaching
// to an already finished job replays the final progress snapshot and
// terminates immediately.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown sweep id %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	ctrSSEClients.Inc()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// Flush the headers now: a client attaching to a job that has not
	// reported progress yet must still see the stream open immediately
	// instead of blocking until the first event happens to be written.
	flusher.Flush()

	var sent progressEvent
	sendProgress := func(prog progressEvent) {
		if prog != sent && prog.Total > 0 {
			writeSSE(w, flusher, SSEEventProgress, prog)
			sent = prog
		}
	}
	for {
		prog, changed := j.watch()
		sendProgress(prog)
		select {
		case <-changed:
		case <-j.doneCh:
			// The last progress a client sees is the final count.
			prog, _ = j.watch()
			sendProgress(prog)
			st := j.status()
			switch st.State {
			case StateFailed, StateShed:
				writeSSE(w, flusher, SSEEventError, sseError{ID: j.id, Error: st.Error})
			default:
				writeSSE(w, flusher, SSEEventDone, sseDone{ID: j.id, Datapoints: j.datapoints, Partial: j.partial})
			}
			return
		case <-r.Context().Done():
			return
		}
	}
}

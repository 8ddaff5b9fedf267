package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Stalled-SSE-client containment (docs/server.md, docs/robustness.md
// "slow clients cost themselves only"): a job's progress is one
// monotone snapshot plus a change channel, so a progress update never
// blocks on a watcher, and a watcher that stops reading only delays
// its own stream.

// TestUpdateNeverBlocksOnWatchers: 10⁵ progress updates with eight
// attached watchers that never read finish promptly, every watcher's
// change channel fires, and the snapshot holds the last update.
func TestUpdateNeverBlocksOnWatchers(t *testing.T) {
	var tbl jobTable
	tbl.init(4)
	j := tbl.create(StateRunning)
	var watchers []<-chan struct{}
	for i := 0; i < 8; i++ {
		_, changed := j.watch()
		watchers = append(watchers, changed)
	}

	const updates = 100_000
	finished := make(chan struct{})
	go func() {
		for i := 1; i <= updates; i++ {
			j.update(i, 0, updates)
		}
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("progress updates blocked on watchers that never read")
	}
	for i, changed := range watchers {
		select {
		case <-changed:
		default:
			t.Fatalf("watcher %d was never woken", i)
		}
	}
	if prog, _ := j.watch(); prog.Done != updates || prog.Total != updates {
		t.Fatalf("snapshot = %+v, want done=total=%d", prog, updates)
	}
}

// TestStalledSSEClientDropped: end to end over a real listener — a
// client that opens the events stream and stops reading stalls only its
// own handler; progress updates (driven here directly via j.update)
// never block on it. Once the job finishes and the client drains, its
// stream ends with the final progress snapshot and then the done frame,
// and the server returns to its goroutine baseline.
func TestStalledSSEClientDropped(t *testing.T) {
	// Small socket buffers on both ends, so the unread stream fills the
	// connection after a few hundred frames.
	s := New(Options{Workers: 2})
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Listener = smallBufListener{ts.Listener}
	ts.Start()
	defer ts.Close()
	j := s.jobs.create(StateRunning)
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err == nil {
				err = c.(*net.TCPConn).SetReadBuffer(4096)
			}
			return c, err
		},
	}}
	defer client.CloseIdleConnections()

	base := runtime.NumGoroutine()
	resp, err := client.Get(ts.URL + "/v1/sweep/" + j.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}

	// Pump progress for a while with nobody reading the response body:
	// the handler fills the socket and blocks in Write while the pump
	// runs on.
	const total = 1 << 30
	pumped := make(chan int)
	go func() {
		i := 0
		for start := time.Now(); time.Since(start) < 250*time.Millisecond; {
			i++
			j.update(i, 0, total)
		}
		pumped <- i
	}()
	var updates int
	select {
	case updates = <-pumped:
	case <-time.After(30 * time.Second):
		t.Fatal("progress updates blocked on a stalled SSE client")
	}
	j.finish([]byte("{}"), 7, false)

	// Drain: the handler finishes its blocked write, re-reads the final
	// snapshot, and terminates the stream with the done frame.
	events := readFrames(t, resp)
	resp.Body.Close()
	t.Logf("%d updates pumped, %d frames drained", updates, len(events))
	if n := len(events); n < 2 {
		t.Fatalf("drained stream has %d frames, want the final progress and done", n)
	}
	final, last := events[len(events)-2], events[len(events)-1]
	var prog progressEvent
	if final.name != SSEEventProgress || json.Unmarshal([]byte(final.data), &prog) != nil ||
		prog != (progressEvent{Done: updates, Total: total}) {
		t.Fatalf("frame before terminal = %s %s, want the final progress snapshot", final.name, final.data)
	}
	if last.name != SSEEventDone {
		t.Fatalf("terminal frame = %s %s, want %s", last.name, last.data, SSEEventDone)
	}

	waitUntil := time.Now().Add(5 * time.Second)
	for time.Now().Before(waitUntil) {
		if runtime.NumGoroutine() <= base+3 {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("goroutines: baseline %d, now %d — stalled SSE handler leaked",
		base, runtime.NumGoroutine())
}

// smallBufListener shrinks each accepted connection's send buffer.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		err = c.(*net.TCPConn).SetWriteBuffer(4096)
	}
	return c, err
}

// frame is one parsed SSE event.
type frame struct{ name, data string }

// readFrames reads an SSE response to EOF and parses its frames.
func readFrames(t *testing.T, resp *http.Response) []frame {
	t.Helper()
	var frames []frame
	var cur frame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "" && cur.name != "":
			frames = append(frames, cur)
			cur = frame{}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("draining the stalled stream: %v", err)
	}
	return frames
}

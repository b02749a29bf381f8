package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cluster_reconnects_total", "Reconnects.").Add(2)
	tr := NewTracerAt(fakeClock(time.Millisecond))
	s := tr.StartSpan("stage 1")
	s.Event("reconnect")
	s.End()
	tt := NewTaskTable()
	tt.BeginStage("cafe", "cluster[1x1]", 2)
	tt.Running(0, "127.0.0.1:1", 1)
	tt.Done(0)

	srv, err := StartDebugServer("127.0.0.1:0", NewDebugMux(reg, tr, tt))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body := getBody(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, "cluster_reconnects_total 2") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if err := ValidateExposition(body); err != nil {
		t.Fatalf("/metrics not valid exposition: %v", err)
	}

	code, body = getBody(t, base+"/tasks")
	if code != http.StatusOK {
		t.Fatalf("/tasks = %d", code)
	}
	var snap TasksSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/tasks not JSON: %v\n%s", err, body)
	}
	if snap.Stage != "cafe" || snap.Pending != 1 || len(snap.Tasks) != 2 {
		t.Fatalf("/tasks snapshot = %+v", snap)
	}
	if snap.Tasks[0].State != TaskDone {
		t.Fatalf("task 0 = %+v", snap.Tasks[0])
	}

	code, body = getBody(t, base+"/trace")
	if code != http.StatusOK || !strings.Contains(body, `"traceEvents"`) {
		t.Fatalf("/trace = %d:\n%s", code, body)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}

	code, body = getBody(t, base+"/timeline")
	if code != http.StatusOK || !strings.Contains(body, "stage 1") {
		t.Fatalf("/timeline = %d:\n%s", code, body)
	}

	code, body = getBody(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d:\n%.200s", code, body)
	}

	code, _ = getBody(t, base+"/nope")
	if code != http.StatusNotFound {
		t.Fatalf("/nope = %d, want 404", code)
	}
}

func TestDebugServerNilPieces(t *testing.T) {
	srv, err := StartDebugServer("127.0.0.1:0", NewDebugMux(nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, ep := range []string{"/metrics", "/tasks", "/trace", "/timeline"} {
		code, _ := getBody(t, base+ep)
		if code != http.StatusOK {
			t.Fatalf("%s with nil backends = %d, want 200", ep, code)
		}
	}
}

func TestStartDebugServerOff(t *testing.T) {
	srv, err := StartDebugServer("", nil)
	if err != nil || srv != nil {
		t.Fatalf("empty addr must be a no-op, got %v %v", srv, err)
	}
	srv.Close() // nil-safe
	if srv.Addr() != "" {
		t.Fatal("nil server addr must be empty")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/serve"
	"repro/internal/sweep"
)

// TestRemoteSweep runs the -server path against an in-process pnserve on a
// 2-point hopf sweep. With -stream-out the file is the server's
// results.jsonl byte for byte; without it, the points of the -json file
// decode to the same results as those lines.
func TestRemoteSweep(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	ts := httptest.NewServer(s)
	defer func() {
		ts.Close()
		s.Shutdown(context.Background())
	}()
	specs, param, err := buildSpecs("hopf", 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	jsonl := func(id string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/results.jsonl")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("results.jsonl of %s: status %d, %v", id, resp.StatusCode, err)
		}
		return body
	}
	dir := t.TempDir()

	// The server numbers its jobs j1, j2, … in submission order.
	streamOut := filepath.Join(dir, "results.jsonl")
	if rc := runRemote(ts.URL, specs, param, 0, "", false, "", streamOut); rc != 0 {
		t.Fatalf("-stream-out run exited %d", rc)
	}
	got, err := os.ReadFile(streamOut)
	if err != nil {
		t.Fatal(err)
	}
	if want := jsonl("j1"); len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("-stream-out file (%d bytes) differs from the server's results.jsonl (%d bytes)", len(got), len(want))
	}

	jsonPath := filepath.Join(dir, "results.json")
	if rc := runRemote(ts.URL, specs, param, 0, jsonPath, false, "", ""); rc != 0 {
		t.Fatalf("-json run exited %d", rc)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var points []pointJSON
	if err := json.Unmarshal(data, &points); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(jsonl("j2"), []byte("\n")), []byte("\n"))
	if len(points) != len(specs) || len(lines) != len(specs) {
		t.Fatalf("%d points in the -json file, %d lines, want %d", len(points), len(lines), len(specs))
	}
	for i, line := range lines {
		var want sweep.PointResult
		if err := want.UnmarshalJSON(line); err != nil {
			t.Fatal(err)
		}
		p := points[i]
		if p.Name != specs[i].Name || p.Param != param[i] || p.Status != "ok" || !reflect.DeepEqual(*p.Point, want) {
			t.Fatalf("point %d of the -json file (%s, %s) does not decode to line %d", i, p.Name, p.Status, i)
		}
	}
}

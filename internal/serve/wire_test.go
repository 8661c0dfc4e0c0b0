package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ascendperf/internal/stats"
)

// TestStatsWireGolden pins the names clients scrape: every /metrics
// family with its # TYPE, every /metrics series with its label keys, and
// the recursive key set of /v1/stats. Each pinned line must still be
// served, so a removed or renamed name fails; names that are not pinned
// yet are allowed (the FORMATS.md counter table documents them, see
// TestStatsTableMatchesDeclaration). Run with -update to rewrite the
// golden file after an intentional addition.
func TestStatsWireGolden(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if resp, body := postJSON(t, ts.URL+"/v1/roofline", `{"chip":"training","op":"add_relu"}`); resp.StatusCode != 200 {
		t.Fatalf("roofline = %d: %s", resp.StatusCode, body)
	}
	// The coalesced and shed families only print samples once they
	// have counted something.
	s.metrics.observe("roofline", http.StatusOK, 0.001, true)
	s.metrics.observeShed("queue_full")

	got := map[string]bool{}
	for _, line := range strings.Split(string(getBody(t, ts.URL+"/metrics")), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			got["metrics TYPE "+strings.TrimPrefix(line, "# TYPE ")] = true
		case line == "" || strings.HasPrefix(line, "#"):
		default:
			got["metrics series "+seriesShape(line)] = true
		}
	}
	var stats map[string]any
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	addKeys(got, "", stats)

	lines := make([]string, 0, len(got))
	for l := range got {
		lines = append(lines, l)
	}
	sort.Strings(lines)

	golden := filepath.Join("testdata", "stats_wire.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, l := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if !got[l] {
			t.Errorf("wire name removed or renamed: %q", l)
		}
	}
}

// getBody GETs url and returns the body of a 200 response.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, %v", url, resp.StatusCode, err)
	}
	return data
}

// seriesShape reduces a sample line to its series name and sorted label
// keys: `a{x="1",y="2"} 3` becomes `a{x,y}`.
func seriesShape(line string) string {
	name, _, _ := strings.Cut(line, " ")
	base, labels, ok := strings.Cut(name, "{")
	if !ok {
		return name
	}
	var keys []string
	for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
		k, _, _ := strings.Cut(kv, "=")
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return base + "{" + strings.Join(keys, ",") + "}"
}

// addKeys records the dotted path of every key in a decoded JSON object.
func addKeys(into map[string]bool, prefix string, obj map[string]any) {
	for k, v := range obj {
		into["stats "+prefix+k] = true
		if sub, ok := v.(map[string]any); ok {
			addKeys(into, prefix+k+".", sub)
		}
	}
}

// TestStatsTableMatchesDeclaration diffs the FORMATS.md §8.4 counter
// table against the declaration, both ways: every declared field has a
// row with its Prometheus name, kind and help text, and every row names
// a declared field.
func TestStatsTableMatchesDeclaration(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "FORMATS.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "| JSON (`/v1/stats`) | Prometheus (`/metrics`) | Kind | Meaning |\n|---|---|---|---|\n")
	if !ok {
		t.Fatal("FORMATS.md has no counter table")
	}
	rows := map[string]string{}
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.Trim(strings.TrimSpace(cells[i]), "`")
		}
		if len(cells) != 4 {
			t.Fatalf("malformed counter table row %q", line)
		}
		rows[cells[0]] = strings.Join(cells[1:], " | ")
	}

	var st StatsResponse
	metrics := map[string]bool{}
	for _, f := range stats.Fields(&st) {
		if f.Kind != "counter" && f.Kind != "gauge" || f.Help == "" {
			t.Errorf("%s: declaration needs kind counter or gauge and help text", f.Path)
		}
		if f.Metric != "" && (f.Value.Kind() == reflect.Map || metrics[f.Metric]) {
			t.Errorf("%s: metric %s must be a unique unlabelled number", f.Path, f.Metric)
		}
		metrics[f.Metric] = true
		metric := f.Metric
		if metric == "" {
			metric = "—"
		}
		want := strings.Join([]string{metric, f.Kind, f.Help}, " | ")
		got, ok := rows[f.Path]
		switch {
		case !ok:
			t.Errorf("FORMATS.md §8.4 lacks a row for %s (want %q)", f.Path, want)
		case got != want:
			t.Errorf("FORMATS.md §8.4 row %s = %q, declaration says %q", f.Path, got, want)
		}
		delete(rows, f.Path)
	}
	for path := range rows {
		t.Errorf("FORMATS.md §8.4 documents %s, which is not declared", path)
	}
}

package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type row struct {
	N    int      `json:"n"`
	Tags []string `json:"tags,omitempty"`
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := New[row]("tool")
	r.Seeds = []int64{3, 1}
	r.Verdict = "fail"
	r.Counts["b.hits"] = 2
	r.Counts["a"] = 1
	r.Rows = append(r.Rows, row{N: 1, Tags: []string{"x <y>"}}, row{N: 2})
	r.Notes = []string{"note"}
	path := filepath.Join(t.TempDir(), "r.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := Read[row](path, "tool")
	if err != nil {
		t.Fatal(err)
	}
	if back.Verdict != "fail" || back.Counts["b.hits"] != 2 || len(back.Rows) != 2 || back.Rows[0].Tags[0] != "x <y>" {
		t.Fatalf("report lost content: %+v", back)
	}
	if back.NumCPU != r.NumCPU || back.GoVersion != r.GoVersion || len(back.Seeds) != 2 {
		t.Fatalf("runtime header lost: %+v", back)
	}
}

func TestReadRejects(t *testing.T) {
	const ok = `{"tool":"tool","go_version":"go","numcpu":1,"gomaxprocs":1,"verdict":"pass","counts":{},"rows":[{"n":1}]}`
	if _, err := Read[row](write(t, ok), "tool"); err != nil {
		t.Fatalf("canonical report refused: %v", err)
	}
	for name, tc := range map[string]struct{ content, tool, want string }{
		"unknown field":     {strings.Replace(ok, `"counts"`, `"surprise":1,"counts"`, 1), "tool", "unknown field"},
		"unknown row field": {strings.Replace(ok, `{"n":1}`, `{"n":1,"m":2}`, 1), "tool", "unknown field"},
		"wrong tool":        {ok, "other", `want "other"`},
		"bad verdict":       {strings.Replace(ok, `"pass"`, `"maybe"`, 1), "tool", "verdict"},
		"lossy row":         {strings.Replace(ok, `{"n":1}`, `{"n":1,"n":2}`, 1), "tool", "round-trip"},
		"trailing data":     {ok + `{}`, "tool", "after top-level value"},
	} {
		_, err := Read[row](write(t, tc.content), tc.tool)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", name, err, tc.want)
		}
	}
}

func write(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

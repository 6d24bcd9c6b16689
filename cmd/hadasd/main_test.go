package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/hadas"
	"repro/internal/persist"
	"repro/internal/value"
)

const testManifest = `{
  "apos": [
    {
      "name": "payroll",
      "class": "EmployeeDB",
      "data": {"records": {"alice": {"salary": 12500}}},
      "extData": {"cache": {}},
      "methods": {
        "salaryOf": "fn(name) { let recs = self.records; if !has(recs, name) { return -1; } return recs[name][\"salary\"]; }"
      }
    }
  ],
  "programs": {"hello": "fn() { return \"hi\"; }"}
}`

func writeManifest(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "site.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadManifest(t *testing.T) {
	site, err := hadas.NewSite(hadas.Config{Name: "manifest-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()

	if err := loadManifest(site, writeManifest(t, testManifest)); err != nil {
		t.Fatal(err)
	}
	apo, err := site.APO("payroll")
	if err != nil {
		t.Fatal(err)
	}
	v, err := apo.Invoke(site.IOO().Principal(), "salaryOf", value.NewString("alice"))
	if err != nil {
		t.Fatal(err)
	}
	if i, _ := v.Int(); i != 12500 {
		t.Errorf("salaryOf = %v", v)
	}
	out, err := site.RunProgram("hello")
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "hi" {
		t.Errorf("program = %v", out)
	}
	// Ext data installed too.
	if _, err := apo.Get(apo.Principal(), "cache"); err != nil {
		t.Errorf("extData missing: %v", err)
	}
}

// TestRefuseLegacyStore: a -store directory left by the removed
// file-per-slot format is refused by name, before any WAL is opened over
// it; a fresh directory and one already holding a WAL are accepted.
func TestRefuseLegacyStore(t *testing.T) {
	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "686f6d65.slot"), []byte("old Home"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The listen address cannot be bound, so a run that got past the store
	// check fails there instead of serving until a signal.
	err := run("legacy", "", "not an address", "", legacy, time.Second, 0, nil)
	if err == nil || !strings.Contains(err.Error(), legacy) || !strings.Contains(err.Error(), "file-per-slot") {
		t.Fatalf("run over a legacy store directory: %v, want a refusal naming %s and the old format", err, legacy)
	}
	if _, err := os.Stat(filepath.Join(legacy, "wal-manifest")); !os.IsNotExist(err) {
		t.Errorf("a WAL was opened over the refused directory: %v", err)
	}

	if err := refuseLegacyStore(filepath.Join(t.TempDir(), "fresh")); err != nil {
		t.Errorf("fresh directory refused: %v", err)
	}
	// A directory a WAL already owns stays usable even with stray slot
	// files beside it: the log, not the strays, is the site's state.
	w, err := persist.NewWALStore(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := refuseLegacyStore(legacy); err != nil {
		t.Errorf("WAL directory refused: %v", err)
	}
}

func TestLoadManifestErrors(t *testing.T) {
	site, err := hadas.NewSite(hadas.Config{Name: "manifest-errors"})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()

	cases := map[string]string{
		"bad json":     `{not json`,
		"nameless apo": `{"apos": [{"class": "X"}]}`,
		"bad data":     `{"apos": [{"name": "a", "data": {"x": }}]}`,
		"bad method":   `{"apos": [{"name": "a", "methods": {"m": "not a fn"}}]}`,
		"bad program":  `{"programs": {"p": "still not a fn"}}`,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			if err := loadManifest(site, writeManifest(t, content)); err == nil {
				t.Error("bad manifest accepted")
			}
		})
	}
	if err := loadManifest(site, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing manifest accepted")
	}
}

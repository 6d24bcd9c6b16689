// hadasd runs a HADAS site daemon: it binds the site protocol endpoint,
// optionally loads APOs and interoperability programs from a JSON
// manifest, links to peers, and serves until interrupted.
//
// Usage:
//
//	hadasd -name tokyo -listen 127.0.0.1:7001 \
//	       -manifest site.json -link 127.0.0.1:7002 -store /var/lib/hadas
//
// -store DIR keeps the site's Home and migration journal in a write-ahead
// log in DIR (persist.WALStore); without it the site is volatile.
//
// Manifest format (all sections optional):
//
//	{
//	  "apos": [
//	    {
//	      "name": "payroll",
//	      "class": "EmployeeDB",
//	      "data":    {"records": {"alice": {"salary": 12500}}},
//	      "extData": {"cache": {}},
//	      "methods": {"query": "fn(name) { ... }"}
//	    }
//	  ],
//	  "programs": {"totalPayroll": "fn(names) { ... }"}
//	}
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/hadas"
	"repro/internal/persist"
	"repro/internal/value"
)

type manifest struct {
	APOs []struct {
		Name    string                     `json:"name"`
		Class   string                     `json:"class"`
		Data    map[string]json.RawMessage `json:"data"`
		ExtData map[string]json.RawMessage `json:"extData"`
		Methods map[string]string          `json:"methods"`
	} `json:"apos"`
	Programs map[string]string `json:"programs"`
}

type linkList []string

func (l *linkList) String() string { return strings.Join(*l, ",") }
func (l *linkList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	log.SetFlags(log.Ltime)
	var (
		name         = flag.String("name", "", "site name (required)")
		domain       = flag.String("domain", "", "trust domain (defaults to the site name)")
		listen       = flag.String("listen", "127.0.0.1:0", "protocol listen address")
		manifestPath = flag.String("manifest", "", "JSON manifest of APOs and programs")
		storeDir     = flag.String("store", "", "directory of the site's write-ahead log (empty: volatile site)")
		callTimeout  = flag.Duration("call-timeout", hadas.DefaultCallTimeout, "per-call deadline for peer round trips")
		probeEvery   = flag.Duration("probe-interval", 0, "background peer liveness probe period (0 disables probing)")
		links        linkList
	)
	flag.Var(&links, "link", "peer address to link to (repeatable)")
	flag.Parse()

	if err := run(*name, *domain, *listen, *manifestPath, *storeDir, *callTimeout, *probeEvery, links); err != nil {
		log.Fatal(err)
	}
}

// refuseLegacyStore rejects a directory written by the file-per-slot
// store earlier versions of hadasd defaulted to: one <hex>.slot file per
// slot and no WAL manifest. A WAL opened there would ignore those files,
// start empty, and the first PersistAll would silently supersede the old
// Home. "wal-manifest" is the file persist.WALStore publishes its segment
// list in; a directory that has one was already opened as a WAL.
func refuseLegacyStore(dir string) error {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil // NewWALStore creates it
	}
	if err != nil {
		return fmt.Errorf("hadasd: -store %s: %w", dir, err)
	}
	slots := 0
	for _, e := range entries {
		if e.Name() == "wal-manifest" {
			return nil
		}
		if strings.HasSuffix(e.Name(), ".slot") {
			slots++
		}
	}
	if slots > 0 {
		return fmt.Errorf("hadasd: -store %s holds %d *.slot files of the removed file-per-slot format and no write-ahead log; "+
			"this version cannot read them — start from an empty directory", dir, slots)
	}
	return nil
}

func run(name, domain, listen, manifestPath, storeDir string,
	callTimeout, probeEvery time.Duration, links []string) error {
	if name == "" {
		return fmt.Errorf("hadasd: -name is required")
	}
	cfg := hadas.Config{
		Name:          name,
		Domain:        domain,
		Output:        func(line string) { log.Printf("[%s] %s", name, line) },
		CallTimeout:   callTimeout,
		ProbeInterval: probeEvery,
	}
	if storeDir != "" {
		if err := refuseLegacyStore(storeDir); err != nil {
			return err
		}
		store, err := persist.NewWALStore(storeDir)
		if err != nil {
			return err
		}
		defer store.Close()
		cfg.Store = store
	}
	site, err := hadas.NewSite(cfg)
	if err != nil {
		return err
	}
	defer site.Close()

	addr, err := site.Serve(listen)
	if err != nil {
		return err
	}
	log.Printf("site %s serving on %s (domain %s)", site.Name(), addr, site.Domain())

	for _, peer := range links {
		peerName, err := site.Link(peer)
		if err != nil {
			return fmt.Errorf("link %s: %w", peer, err)
		}
		log.Printf("linked to %s at %s", peerName, peer)
	}

	// Recover before applying the manifest: the journal and the persisted
	// Home are newer than the static manifest, and in-doubt agent
	// migrations need the links above to query their destinations.
	if cfg.Store != nil {
		restored, err := site.BootstrapHome()
		if err != nil && !errors.Is(err, persist.ErrNoSlot) {
			return fmt.Errorf("bootstrap: %w", err)
		}
		if len(restored) > 0 {
			log.Printf("restored %s from %s", strings.Join(restored, ", "), storeDir)
		}
		if pending := site.InDoubtMigrations(); len(pending) > 0 {
			log.Printf("migrations still in doubt: %s", strings.Join(pending, ", "))
		}
	}

	if manifestPath != "" {
		if err := loadManifest(site, manifestPath); err != nil {
			return err
		}
	}

	if cfg.Store != nil {
		if err := site.PersistAll(); err != nil {
			return fmt.Errorf("initial persist: %w", err)
		}
		log.Printf("persisted Home to %s", storeDir)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	if cfg.Store != nil {
		if err := site.PersistAll(); err != nil {
			log.Printf("final persist failed: %v", err)
		}
	}
	return nil
}

func loadManifest(site *hadas.Site, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("manifest %s: %w", path, err)
	}
	for _, apo := range m.APOs {
		if apo.Name == "" {
			return fmt.Errorf("manifest: APO without a name")
		}
		if _, err := site.APO(apo.Name); err == nil {
			// Recovery (journal or persisted Home) already installed a
			// newer incarnation; the static manifest does not override it.
			log.Printf("APO %s already installed (recovered); manifest entry skipped", apo.Name)
			continue
		}
		class := apo.Class
		if class == "" {
			class = apo.Name
		}
		b := site.NewAPOBuilder(class)
		for item, doc := range apo.Data {
			v, err := value.FromJSON(doc)
			if err != nil {
				return fmt.Errorf("manifest APO %q data %q: %w", apo.Name, item, err)
			}
			b.FixedData(item, v)
		}
		for item, doc := range apo.ExtData {
			v, err := value.FromJSON(doc)
			if err != nil {
				return fmt.Errorf("manifest APO %q extData %q: %w", apo.Name, item, err)
			}
			b.ExtData(item, v)
		}
		for method, src := range apo.Methods {
			b.FixedScriptMethod(method, src)
		}
		obj, err := b.Build()
		if err != nil {
			return fmt.Errorf("manifest APO %q: %w", apo.Name, err)
		}
		if err := site.AddAPO(apo.Name, obj); err != nil {
			return err
		}
		log.Printf("installed APO %s (class %s)", apo.Name, class)
	}
	for name, src := range m.Programs {
		if err := site.AddProgram(name, src); err != nil {
			return err
		}
		log.Printf("installed program %s", name)
	}
	return nil
}

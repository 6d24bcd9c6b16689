package hadas

// Golden vectors and a fuzz target for the protocol records and the
// durable ones (journal, arrival, manifest). The golden file holds one
// encoding per record (two for the invoke reply, to pin an outcome code),
// so a change of format is a deliberate edit: run with -update to rewrite
// it. FuzzProtocolRecords feeds arbitrary bytes, seeded from those
// vectors, to every record's decoder.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/naming"
	"repro/internal/persist"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

var updateRecords = flag.Bool("update", false, "rewrite testdata/records_golden.json")

const recordsGolden = "testdata/records_golden.json"

// recordCase is one record type: a filled sample, and a zero record to
// decode into.
type recordCase struct {
	name   string
	sample func(*wire.Codec)
	zero   func() func(*wire.Codec)
}

func recordOf[R any, P interface {
	*R
	Fields(*wire.Codec)
}](name string, sample R) recordCase {
	return recordCase{name, P(&sample).Fields, func() func(*wire.Codec) { return P(new(R)).Fields }}
}

func protocolRecords() []recordCase {
	id := naming.ID{0xa1, 0xa2, 0xa3, 0xa4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	args := []value.Value{value.NewString("alice"), value.NewInt(-3), value.Null}
	return []recordCase{
		recordOf("linkReq", linkReq{linkReply{"a", "dom-a", []byte{1, 2, 3}}, "127.0.0.1:7000"}),
		recordOf("linkReply", linkReply{"b", "dom-b", []byte{4, 5}}),
		recordOf("exportReq", exportReq{"a", "dom-a", "payroll", id}),
		recordOf("exportReply", exportReply{[]byte("image")}),
		recordOf("invokeReq", invokeReq{"a", id, "payroll", "salaryOf", args}),
		recordOf("invokeReply", invokeReply{Result: value.NewInt(12500)}),
		recordOf("invokeReply/deadlock", invokeReply{Outcome: outcomeDeadlock, Msg: "serialized admission deadlock: a:1 → b:2"}),
		recordOf("dispatchReq", dispatchReq{"a", "scout", []byte("agent image"), "mid-1", 7, 5}),
		recordOf("dispatchReq/acked-ahead", dispatchReq{"a", "scout", nil, "mid-2", 3, 9}),
		recordOf("dispatchReq/zero", dispatchReq{Site: "a", Name: "scout", MID: "mid-3"}),
		recordOf("dispatchReply", dispatchReply{Result: value.NewListOf(value.True, value.NewFloat(0.5))}),
		recordOf("statusReq", statusReq{"a", "mid-1", "scout"}),
		recordOf("statusReq/agent", statusReq{Site: "a", Agent: "scout"}), // TraceAgent's query
		recordOf("statusReply", statusReply{dispatchReply{value.Null, `agent "scout" onArrival: boom`}, arrivalDone}),
		recordOf("agentReply", agentReply{arrivalDeparted, "c"}),
		recordOf("probeReq", probeReq{"a:1", "b:2", 8, []core.ProbeStep{{Chain: "a:1", Site: "a", Object: "Lock<x>", Holder: "b:2"}}}),
		recordOf("verdictReply", verdictReply{"a:1 → b:2 → a:1", "a:1", "Lock<x>"}),
		// The durable records: the origin journal, the dedup table and the
		// Home manifest.
		recordOf("migrationRecord", migrationRecord{MID: "mid-1", Name: "scout", Dest: "b", State: migrationInDoubt, WasAPO: true,
			Image: []byte("agent image"), Seq: 12, Num: 7, Born: 1_700_000_000_000_000_000, Attempts: 2}),
		recordOf("arrival", arrival{mid: "mid-1", name: "scout", from: "a", agentID: id, image: []byte("agent image"),
			seq: 12, num: 7, state: arrivalDone, result: value.NewInt(3)}),
		recordOf("arrival/departed", arrival{mid: "mid-2", name: "scout", agentID: id, seq: 13, state: arrivalDeparted, next: "c"}),
		recordOf("manifestRecord", manifestRecord{[]manifestEntry{{"ledger", naming.ID{15: 1}}, {"payroll", id}}}),
	}
}

type recordVector struct {
	Name string `json:"name"`
	Wire string `json:"wire"` // hex
}

func readRecordVectors(t testing.TB) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(recordsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var vs []recordVector
	if err := json.Unmarshal(raw, &vs); err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(vs))
	for i, v := range vs {
		if out[i], err = hex.DecodeString(v.Wire); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestProtocolRecordsGolden pins every record's bytes. Each vector is a
// wire value, decodes into its record, and re-encodes to the same bytes;
// the encoder sizes its buffer exactly.
func TestProtocolRecordsGolden(t *testing.T) {
	cases := protocolRecords()
	if *updateRecords {
		vs := make([]recordVector, len(cases))
		for i, rc := range cases {
			vs[i] = recordVector{rc.name, hex.EncodeToString(wire.EncodeRecord(rc.sample))}
		}
		raw, err := json.MarshalIndent(vs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(recordsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(recordsGolden, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := readRecordVectors(t)
	if len(golden) != len(cases) {
		t.Fatalf("golden file has %d vectors, the protocol %d records", len(golden), len(cases))
	}
	for i, rc := range cases {
		enc := wire.EncodeRecord(rc.sample)
		if !bytes.Equal(enc, golden[i]) {
			t.Errorf("%s: encoding drifted:\n got %x\nwant %x", rc.name, enc, golden[i])
		}
		if cap(enc) != len(enc) {
			t.Errorf("%s: encoder sized its buffer at %d for %d bytes", rc.name, cap(enc), len(enc))
		}
		if _, err := wire.DecodeValue(golden[i]); err != nil {
			t.Errorf("%s: not a wire value: %v", rc.name, err)
		}
		dec := rc.zero()
		if err := wire.DecodeRecord(golden[i], dec); err != nil {
			t.Errorf("%s: decode: %v", rc.name, err)
		} else if again := wire.EncodeRecord(dec); !bytes.Equal(again, golden[i]) {
			t.Errorf("%s: decode and re-encode drifted:\n got %x\nwant %x", rc.name, again, golden[i])
		}
		// A record cut at any byte is a typed codec error.
		for n := 0; n < len(golden[i]); n++ {
			if err := wire.DecodeRecord(golden[i][:n], rc.zero()); !errors.Is(err, wire.ErrCodec) {
				t.Fatalf("%s cut to %d of %d bytes: %v, want wire.ErrCodec", rc.name, n, len(golden[i]), err)
			}
		}
	}
}

// legacyDispatch is a dispatch as sent before Seq and Acked: four fields.
func legacyDispatch() []byte {
	site, name, mid, agent := "a", "scout", "mid-1", []byte("agent image")
	return wire.EncodeRecord(func(c *wire.Codec) {
		c.Str("site", &site)
		c.Str("name", &name)
		c.Bytes("agent", &agent)
		c.Str("mid", &mid)
	})
}

// TestLegacyDispatchAcksNothing: an older origin's dispatch decodes with
// Seq and Acked zero, and a destination lets go of no record below 0.
func TestLegacyDispatchAcksNothing(t *testing.T) {
	var req dispatchReq
	if err := wire.DecodeRecord(legacyDispatch(), req.Fields); err != nil {
		t.Fatal(err)
	}
	if req.MID != "mid-1" || req.Seq != 0 || req.Acked != 0 {
		t.Errorf("legacy dispatch decoded as %+v", req)
	}
}

// FuzzProtocolRecords: every record's decoder either refuses the input
// with wire.ErrCodec or core.ErrArity, or returns a record whose
// re-encoding is a wire value that decodes back to the same record. It
// never panics.
func FuzzProtocolRecords(f *testing.F) {
	for _, v := range readRecordVectors(f) {
		f.Add(v)
	}
	f.Add(legacyDispatch())
	cases := protocolRecords()
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, rc := range cases {
			dec := rc.zero()
			if err := wire.DecodeRecord(b, dec); err != nil {
				if !errors.Is(err, wire.ErrCodec) && !errors.Is(err, core.ErrArity) {
					t.Fatalf("%s: untyped refusal %v", rc.name, err)
				}
				continue
			}
			enc := wire.EncodeRecord(dec)
			if _, err := wire.DecodeValue(enc); err != nil {
				t.Fatalf("%s: re-encoding is not a wire value: %v", rc.name, err)
			}
			again := rc.zero()
			if err := wire.DecodeRecord(enc, again); err != nil {
				t.Fatalf("%s: re-encoding does not decode: %v", rc.name, err)
			}
			if re := wire.EncodeRecord(again); !bytes.Equal(re, enc) {
				t.Fatalf("%s: round trip drifted:\n%x\n%x", rc.name, enc, re)
			}
		}
	})
}

// storeContents is every slot of a store and its bytes.
func storeContents(t *testing.T, store persist.Store) map[string]string {
	t.Helper()
	slots, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(slots))
	for _, slot := range slots {
		raw, err := store.Get(slot)
		if err != nil {
			t.Fatal(err)
		}
		out[slot] = string(raw)
	}
	return out
}

// TestMapShapedStoreRefused: a journal, arrival or manifest record in the
// map form written before records makes BootstrapHome fail with
// wire.ErrMapShaped and change nothing (refusesBootstrap). Mutants caught:
// scanJournal skipping a map-shaped record as damaged (the arrival and
// migration cases bootstrap without error), and BootstrapHome reading the
// migrations or the manifest only after replaying the arrivals (the walker
// is installed).
func TestMapShapedStoreRefused(t *testing.T) {
	str := value.NewString
	legacy := map[string]func(id naming.ID, image []byte) (string, value.Value){
		"arrival": func(id naming.ID, image []byte) (string, value.Value) {
			return arrivalSlot("mid-old"), value.NewMap(map[string]value.Value{
				"mid": str("mid-old"), "name": str("old"), "from": str("b"), "agent": str(id.String()),
				"image": value.NewBytes(image), "seq": value.NewInt(1), "num": value.NewInt(1),
				"state": str(arrivalDone), "result": value.Null, "err": str(""), "next": str(""),
			})
		},
		"migration": func(id naming.ID, image []byte) (string, value.Value) {
			return migrationSlot("mid-old"), value.NewMap(map[string]value.Value{
				"mid": str("mid-old"), "name": str("old"), "dest": str("b"), "wasAPO": value.True,
				"image": value.NewBytes(image), "seq": value.NewInt(1), "num": value.NewInt(1), "born": value.NewInt(1),
			})
		},
		"manifest": func(id naming.ID, _ []byte) (string, value.Value) {
			return homeManifestSlot, value.NewMap(map[string]value.Value{"resident": str(id.String())})
		},
	}
	for what, old := range legacy {
		t.Run(what, func(t *testing.T) {
			refusesBootstrap(t, wire.ErrMapShaped, func(id naming.ID, image []byte) (string, []byte) {
				slot, rec := old(id, image)
				return slot, wire.EncodeValue(rec)
			})
		})
	}
}

// legacyImage is wire's golden image in the format from before records.
func legacyImage(t *testing.T) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "wire", "testdata", "image_v1.hex"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(string(bytes.TrimSpace(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOldImageStoreRefused: an image in the format from before records —
// a checkpointed APO's, or one a current journal or arrival record carries
// — makes BootstrapHome fail with wire.ErrNotRecord and change nothing
// (refusesBootstrap). Mutants caught: the checkpoint's images read only
// after the journal replay (the walker is installed), and a journal
// decoder that leaves its image unchecked or a scan that refuses only
// map-shaped records (the replay logs the image and bootstraps the rest).
func TestOldImageStoreRefused(t *testing.T) {
	legacy := legacyImage(t)
	if err := wire.RecordForm(legacy); !errors.Is(err, wire.ErrNotRecord) || errors.Is(err, wire.ErrMapShaped) {
		t.Fatalf("old-format image's form: %v", err)
	}
	cases := map[string]func(id naming.ID) (string, []byte){
		"checkpoint": func(id naming.ID) (string, []byte) { return id.String(), legacy },
		"arrival": func(id naming.ID) (string, []byte) {
			a := arrival{mid: "mid-old", name: "old", from: "b", agentID: id, image: legacy, seq: 1, num: 1, state: arrivalDone}
			return arrivalSlot(a.mid), wire.EncodeRecord(a.Fields)
		},
		"migration": func(naming.ID) (string, []byte) {
			r := migrationRecord{MID: "mid-old", Name: "old", Dest: "b", State: migrationPrepared, WasAPO: true,
				Image: legacy, Seq: 1, Num: 1, Born: 1}
			return migrationSlot(r.MID), wire.EncodeRecord(r.Fields)
		},
	}
	for what, plant := range cases {
		t.Run(what, func(t *testing.T) {
			refusesBootstrap(t, wire.ErrNotRecord, func(id naming.ID, _ []byte) (string, []byte) { return plant(id) })
		})
	}
}

// refusesBootstrap builds a store that holds what a bootstrap would
// restore — a checkpointed APO, "resident", and a landed agent, "walker",
// in records of the current form — writes into it the slot plant returns
// for the resident's ID and image, and requires BootstrapHome to fail with
// want: no agent or APO installed, and every byte of the store kept.
func refusesBootstrap(t *testing.T, want error, plant func(id naming.ID, image []byte) (string, []byte)) {
	t.Helper()
	net := transport.NewInProcNet()
	store := persist.NewMemStore()
	a := newMigSite(t, net, "a", store)
	b := newMigSite(t, net, "b", persist.NewMemStore())
	link(t, a, "b")
	link(t, b, "a")
	resident := inertAgent(t, a, "resident")
	if err := a.PersistAll(); err != nil {
		t.Fatal(err)
	}
	inertAgent(t, b, "walker")
	if _, err := b.DispatchAgent("walker", "a"); err != nil {
		t.Fatal(err)
	}
	img, err := resident.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(plant(resident.ID(), wire.EncodeImage(img))); err != nil {
		t.Fatal(err)
	}
	before := storeContents(t, store)

	a2 := restartSite(t, net, a, "b")
	restored, err := a2.BootstrapHome()
	if !errors.Is(err, want) {
		t.Fatalf("bootstrap: %v, want %v", err, want)
	}
	if len(restored) != 0 || len(a2.APONames()) != 0 {
		t.Errorf("refused bootstrap restored %v; Home holds %v", restored, a2.APONames())
	}
	if !reflect.DeepEqual(storeContents(t, store), before) {
		t.Error("refused bootstrap changed the store")
	}
}

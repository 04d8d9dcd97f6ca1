package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"reflect"
	"testing"
)

// testdata/cpu.pprof is a CPU profile of six small shard-lease reps.
// The expected per-layer totals were derived independently from
// `go tool pprof -traces testdata/cpu.pprof`, charging each trace to
// its innermost dmetabench/internal (or main) frame; the GC time is
// that of the three traces through gcBgMarkWorker or bgsweep.
func TestParseFixtureProfile(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	wantTypes := []valueType{{"samples", "count"}, {"cpu", "nanoseconds"}}
	if !reflect.DeepEqual(p.sampleTypes, wantTypes) {
		t.Fatalf("sample types %v, want %v", p.sampleTypes, wantTypes)
	}
	const ms = int64(1e6)
	got, err := p.byLayer("cpu")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"bench": 10 * ms, "clientcache": 70 * ms, "fs": 10 * ms, "namespace": 10 * ms,
		"shard": 100 * ms, "sim": 200 * ms, "simnet": 30 * ms, unattributed: 70 * ms,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cpu by layer\n got %v\nwant %v", got, want)
	}
	if gc, err := p.gcValue("cpu"); err != nil || gc != 30*ms {
		t.Fatalf("gc time %d, %v; want %d", gc, err, 30*ms)
	}
	counts, err := p.byLayer("samples")
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, c := range counts {
		n += c
	}
	if n != 50 || len(p.samples) != 50 {
		t.Fatalf("%d samples counting %d, want 50", len(p.samples), n)
	}
	if _, err := p.byLayer("alloc_objects"); err == nil {
		t.Fatal("byLayer accepted a sample type the profile does not have")
	}
}

func TestParseProfileRejectsCorruptInput(t *testing.T) {
	data, err := os.ReadFile("testdata/cpu.pprof")
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(raw); err != nil {
		t.Fatalf("uncompressed profile: %v", err)
	}
	for _, cut := range []int{1, len(raw) / 3, len(raw) / 2, len(raw) - 1} {
		if _, err := parseProfile(raw[:cut]); err == nil {
			t.Errorf("profile cut at %d of %d bytes parsed without error", cut, len(raw))
		}
	}
	if _, err := parseProfile(data[:len(data)/2]); err == nil {
		t.Error("truncated gzip stream parsed without error")
	}
}

// A hand-encoded message: one sample type, one unpacked and one packed
// sample, one location with an inlined pair of lines.
func TestParseProfileEncodings(t *testing.T) {
	msg := func(field int, body []byte) []byte {
		return append([]byte{byte(field<<3 | 2), byte(len(body))}, body...)
	}
	varint := func(field int, v byte) []byte { return []byte{byte(field << 3), v} }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	data := cat(
		msg(1, cat(varint(1, 1), varint(2, 2))), // sample_type cpu/nanoseconds
		msg(2, cat(varint(1, 7), varint(2, 5))), // unpacked sample
		msg(2, cat(msg(1, []byte{7}), msg(2, []byte{3}))),
		msg(4, cat(varint(1, 7), msg(4, varint(1, 1)), msg(4, varint(1, 2)))),
		msg(5, cat(varint(1, 1), varint(2, 3))),
		msg(5, cat(varint(1, 2), varint(2, 4))),
		msg(6, nil),
		msg(6, []byte("cpu")),
		msg(6, []byte("nanoseconds")),
		msg(6, []byte("runtime.memmove")),
		msg(6, []byte("dmetabench/internal/namespace.(*Namespace).Create")),
	)
	p, err := parseProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.byLayer("cpu")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"namespace": 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"dmetabench/internal/shard.(*FS).hop.func1":          "shard",
		"dmetabench/internal/sim.(*minHeap[...]).push":       "sim",
		"dmetabench/internal/clientcache.(*LeaseCache).Put":  "clientcache",
		"dmetabench/internal/par.Run":                        "other",
		"main.(*countedClient).Create":                       "bench",
		"runtime.mallocgc":                                   "",
		"dmetabench/internalx.F":                             "",
		"dmetabench/internal/namespace/sub.(*T).M":           "namespace",
		"dmetabench/internal/service.AttachAggregate.func1":  "service",
		"dmetabench/internal/results.(*Histogram).Add":       "results",
		"dmetabench/internal/workload.OpMix.Normalized":      "workload",
		"dmetabench/internal/agg.(*Source).Tick":             "agg",
		"dmetabench/internal/lustre.(*client).Create":        "lustre",
		"dmetabench/internal/storage.(*WAFL).LogMetadata":    "storage",
		"dmetabench/internal/simnet.(*Conn).TryCallDom":      "simnet",
		"dmetabench/internal/core.(*Runner).runMeasurement":  "core",
		"dmetabench/internal/nfs.(*client).Stat":             "nfs",
		"dmetabench/internal/cluster.(*Node).Syscall":        "cluster",
		"dmetabench/internal/fs.CodeOf":                      "fs",
		"dmetabench/internal/namespace.(*Namespace).resolve": "namespace",
	} {
		got, ok := frameLayer(fn)
		if got != want || ok != (want != "") {
			t.Errorf("frameLayer(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

package main

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	storagetank "repro"
)

func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsSupportedTail(t *testing.T) {
	ns := make([]int64, 1000)
	for i := range ns {
		ns[len(ns)-1-i] = int64(i+1) * 1000 // 1..1000 µs, unsorted
	}
	l := summarize(ns)
	if l.N != 1000 || l.P50us != 500 || l.P90us != 900 || l.TailQ != 0.99 || l.TailUs != 990 {
		t.Fatalf("summarize(1..1000µs) = %+v", l)
	}
	// 500 samples support p90, not p99: the tail falls back.
	l = summarize(ns[:500])
	if l.TailQ != 0.9 {
		t.Fatalf("500 samples: tail quantile %v, want 0.9", l.TailQ)
	}
	// Even p10 of 15 samples lacks ten samples beyond a median.
	if l := summarize(ns[:15]); l.TailQ != 0 || l.TailUs != 0 {
		t.Fatalf("15 samples: %+v, want no tail", l)
	}
}

func block(o *oracle, k blockKey, wid uint64) []byte {
	b := make([]byte, storagetank.BlockSize)
	fillBlock(b, wid, k)
	return b
}

func TestOracleCatchesStaleRead(t *testing.T) {
	o := newOracle()
	k := blockKey{3, 7}
	a := o.beginWrite(k)
	o.ackWrite(k, a)
	b := o.beginWrite(k) // starts after a was acknowledged
	o.ackWrite(k, b)
	s0 := o.beginRead(k)
	if err := o.checkRead(k, s0, block(o, k, b)); err != nil {
		t.Fatalf("fresh value rejected: %v", err)
	}
	err := o.checkRead(k, s0, block(o, k, a))
	if err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale value accepted (err %v)", err)
	}
}

func TestOracleAcceptsConcurrentWrite(t *testing.T) {
	o := newOracle()
	k := blockKey{1, 1}
	a := o.beginWrite(k)
	o.ackWrite(k, a)
	s0 := o.beginRead(k)
	b := o.beginWrite(k) // concurrent with the read: either value is fine
	for _, wid := range []uint64{a, b} {
		if err := o.checkRead(k, s0, block(o, k, wid)); err != nil {
			t.Fatalf("value of write %d rejected: %v", wid, err)
		}
	}
}

func TestOracleRejectsDamagedAndMisplacedBlocks(t *testing.T) {
	o := newOracle()
	k := blockKey{2, 5}
	w := o.beginWrite(k)
	o.ackWrite(k, w)
	torn := block(o, k, w)
	copy(torn[2048:], block(o, k, w+1)[2048:])
	other := block(o, blockKey{2, 6}, w)
	for name, data := range map[string][]byte{"torn": torn, "other block": other,
		"zeros": make([]byte, storagetank.BlockSize), "unissued": block(o, k, w+5)} {
		if err := o.checkRead(k, o.beginRead(k), data); err == nil {
			t.Errorf("%s block accepted", name)
		}
	}
}

// writeStore creates a file-backed store holding one acknowledged write
// per block 0..n-1 and returns its directory.
func writeStore(t *testing.T, o *oracle, n int) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "disk")
	m, err := storagetank.OpenFileMedia(dir, storagetank.MediaOptions{Blocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < n; b++ {
		k := blockKey{9, uint32(b)}
		w := o.beginWrite(k)
		if err := m.Write(uint64(b), block(o, k, w), 1); err != nil {
			t.Fatal(err)
		}
		o.ackWrite(k, w)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "copy")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func checkStore(t *testing.T, o *oracle, dir string) error {
	t.Helper()
	m, err := storagetank.OpenFileMedia(dir, storagetank.MediaOptions{Blocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	return o.checkDurable([]storagetank.Media{m}, 64)
}

func TestDurabilityCatchesRemovedBlock(t *testing.T) {
	o := newOracle()
	dir := writeStore(t, o, 8)
	if err := checkStore(t, o, dir); err != nil {
		t.Fatalf("intact store rejected: %v", err)
	}
	// Remove block 5 from a copy: zero its trailer in meta.blk (a 4 KiB
	// superblock, then 24 bytes per block), as if never written.
	cp := copyDir(t, dir)
	f, err := os.OpenFile(filepath.Join(cp, "meta.blk"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 24), 4096+5*24); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = checkStore(t, o, cp)
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("store without block 5 accepted (err %v)", err)
	}
}

func TestDurabilityCatchesTornAndOldBlocks(t *testing.T) {
	o := newOracle()
	dir := writeStore(t, o, 4)
	// A newer acknowledged write the store never received.
	k := blockKey{9, 2}
	w := o.beginWrite(k)
	o.ackWrite(k, w)
	if err := checkStore(t, o, dir); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("store holding a superseded block accepted (err %v)", err)
	}

	o = newOracle()
	dir = writeStore(t, o, 4)
	f, err := os.OpenFile(filepath.Join(dir, "data.blk"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var junk [8]byte
	binary.BigEndian.PutUint64(junk[:], 0xdeadbeef)
	if _, err := f.WriteAt(junk[:], 1*4096+100); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := checkStore(t, o, dir); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("store with a torn block accepted (err %v)", err)
	}
}

type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	Workloads []struct{ Name, Why string }          `json:"workloads"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	b := readBenchmark(t)
	var e2e, pl []declared
	for _, m := range b.EndToEnd {
		e2e = append(e2e, declared{m.Name, m.Unit, m.Better})
	}
	for _, m := range b.PerLayer {
		pl = append(pl, declared{m.Name, m.Unit, m.Better})
	}
	if !equalDecl(e2e, endToEnd) || !equalDecl(pl, perLayer) {
		t.Fatalf("BENCHMARK.json metrics differ from metrics.go:\n%v\n%v\nvs\n%v\n%v", e2e, pl, endToEnd, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var runners []string
	for name := range workloads {
		runners = append(runners, name)
	}
	sort.Strings(names)
	sort.Strings(runners)
	if strings.Join(names, ",") != strings.Join(runners, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, runners)
	}
}

func equalDecl(a, b []declared) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEveryWorkloadEmitsExactlyTheDeclaredMetrics runs each workload
// briefly, untraced and traced, and checks the metric set, the units,
// the correctness gate and that no end-to-end metric reads 0.
func TestEveryWorkloadEmitsExactlyTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live installations")
	}
	for name, run := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			rc := runConfig{workload: name, seed: 7, seconds: 2.2, trace: traced,
				scratch: t.TempDir(), spans: t.TempDir()}
			info := map[string]any{}
			res, err := run(rc, info)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d info=%v",
					name, traced, res.Correct, res.Attempted, res.Failed, info)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s in %q, declared %q", name, traced, d.name, m.Unit, d.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v", name, d.name, m.Value)
				}
			}
		}
	}
}

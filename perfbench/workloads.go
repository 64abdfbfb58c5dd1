package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	storagetank "repro"
	"repro/internal/msg"
)

// blocksPerFile is the length of every data file the workloads use.
const blocksPerFile = 256

// runSeed derives client ci's generator seed from the workload seed.
func runSeed(seed int64, ci int) int64 { return seed*1_000_003 + int64(ci)*7919 + 1 }

// parallel runs f for every client on its own goroutine and joins their
// errors.
func parallel(n int, f func(ci int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for ci := 0; ci < n; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			errs[ci] = f(ci)
		}(ci)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// mkdirs creates directories in order from client 0.
func mkdirs(c *storagetank.SyncClient, paths ...string) error {
	for _, p := range paths {
		if _, err := c.Create(p, true); err != nil {
			return fmt.Errorf("mkdir %s: %w", p, err)
		}
	}
	return nil
}

// fillFile writes every block of an open file through the oracle and
// syncs it, so set-up never holds more than one file dirty. The last
// block goes first, so the file is allocated in one request.
func fillFile(c *storagetank.SyncClient, h storagetank.Handle, file uint32, o *oracle, buf []byte) error {
	for i := 0; i < blocksPerFile; i++ {
		blk := uint32((i + blocksPerFile - 1) % blocksPerFile)
		k := blockKey{file, blk}
		wid := o.beginWrite(k)
		fillBlock(buf, wid, k)
		if err := c.WriteAt(h, uint64(blk), buf); err != nil {
			return fmt.Errorf("populate %v: %w", k, err)
		}
		o.ackWrite(k, wid)
	}
	return c.SyncAll()
}

// writeBlock issues one oracle-tracked WriteAt.
func writeBlock(r *opRunner, c *storagetank.SyncClient, h storagetank.Handle, k blockKey, o *oracle, buf []byte) {
	wid := o.beginWrite(k)
	fillBlock(buf, wid, k)
	if r.do(kWrite, func() error { return c.WriteAt(h, uint64(k.blk), buf) }) == nil {
		o.ackWrite(k, wid)
	}
}

// readBlock issues one ReadAt and checks what it returns.
func readBlock(r *opRunner, c *storagetank.SyncClient, h storagetank.Handle, k blockKey, o *oracle) error {
	s0 := o.beginRead(k)
	var data []byte
	if r.do(kRead, func() (err error) {
		data, err = c.ReadAt(h, uint64(k.blk))
		return err
	}) != nil {
		return nil
	}
	return o.checkRead(k, s0, data)
}

// --- durable-write ----------------------------------------------------------

// durableWrite: each client loops over its own 4 files of 256 blocks
// (4 MiB, inside the client cache). An iteration is a run of 1–16
// WriteAts to consecutive blocks of one file, then a SyncAll. Locks stay
// cached after the first touch, so the control network is idle and the
// time goes into write-back, the vectored SAN write, the disk node and
// the block store's group-commit fsync.
type durableWrite struct{}

const dwFiles = 4

func (durableWrite) spec() liveSpec { return liveSpec{diskBlocks: 4096} }

func dwPath(ci, j int) string { return fmt.Sprintf("/dw/c%d/f%d", ci, j) }

func (durableWrite) populate(in *install, o *oracle) error {
	if err := mkdirs(in.clients[0], "/dw"); err != nil {
		return err
	}
	return parallel(len(in.clients), func(ci int) error {
		c := in.clients[ci]
		if err := mkdirs(c, fmt.Sprintf("/dw/c%d", ci)); err != nil {
			return err
		}
		buf := make([]byte, storagetank.BlockSize)
		for j := 0; j < dwFiles; j++ {
			h, _, err := c.Open(dwPath(ci, j), true, true)
			if err != nil {
				return fmt.Errorf("open %s: %w", dwPath(ci, j), err)
			}
			in.handles[ci] = append(in.handles[ci], h)
			if err := fillFile(c, h, uint32(ci*dwFiles+j), o, buf); err != nil {
				return err
			}
		}
		return nil
	})
}

type dwDriver struct {
	c        *storagetank.SyncClient
	o        *oracle
	rng      *rand.Rand
	handles  []storagetank.Handle
	ci       int
	file     int
	blk      int
	left     int
	needSync bool
	buf      []byte
}

func (durableWrite) driver(ci int, in *install, o *oracle, seed int64) driver {
	return &dwDriver{c: in.clients[ci], o: o, rng: rand.New(rand.NewSource(runSeed(seed, ci))),
		handles: in.handles[ci], ci: ci, buf: make([]byte, storagetank.BlockSize)}
}

func (d *dwDriver) step(r *opRunner) error {
	if d.left == 0 {
		if d.needSync {
			d.needSync = false
			_ = r.do(kSync, d.c.SyncAll) // counted by the runner
			return nil
		}
		d.file = d.rng.Intn(dwFiles)
		d.blk = d.rng.Intn(blocksPerFile)
		d.left = 1 + d.rng.Intn(16)
	}
	k := blockKey{uint32(d.ci*dwFiles + d.file), uint32(d.blk)}
	writeBlock(r, d.c, d.handles[d.file], k, d.o, d.buf)
	d.blk = (d.blk + 1) % blocksPerFile
	d.left--
	d.needSync = d.left == 0
	return nil
}

// --- shared-rw --------------------------------------------------------------

// sharedRW: both clients share 64 files × 256 blocks (64 MiB) against an
// 8 MiB cache quota each. File choice is Zipf-skewed; about 85% of ops
// are reads in sequential runs of 1–32 blocks, the rest single-block
// WriteAts, and each client syncs every 64 ops. A write to a file the
// other client caches forces a demand, a flush and a downgrade, then an
// invalidation and a SAN re-read.
type sharedRW struct{}

const (
	rwFiles     = 64
	rwQuota     = 8 << 20
	rwZipfS     = 1.1
	rwSyncEvery = 64
	// rwWriteStep is the chance that a new step is one WriteAt rather
	// than a read run of mean length 16.5 blocks: 0.744 makes writes
	// 15% of data ops (0.744 / (0.744 + 0.256·16.5)).
	rwWriteStep = 0.744
)

func (sharedRW) spec() liveSpec { return liveSpec{diskBlocks: 16384, cacheQuota: rwQuota} }

func rwPath(j int) string { return fmt.Sprintf("/rw/f%d", j) }

func (sharedRW) populate(in *install, o *oracle) error {
	if err := mkdirs(in.clients[0], "/rw"); err != nil {
		return err
	}
	if err := parallel(len(in.clients), func(ci int) error {
		c := in.clients[ci]
		buf := make([]byte, storagetank.BlockSize)
		for j := ci; j < rwFiles; j += len(in.clients) {
			h, _, err := c.Open(rwPath(j), true, true)
			if err != nil {
				return fmt.Errorf("open %s: %w", rwPath(j), err)
			}
			if err := fillFile(c, h, uint32(j), o, buf); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// Every client opens every file; handles are per client.
	return parallel(len(in.clients), func(ci int) error {
		for j := 0; j < rwFiles; j++ {
			h, _, err := in.clients[ci].Open(rwPath(j), true, false)
			if err != nil {
				return fmt.Errorf("open %s: %w", rwPath(j), err)
			}
			in.handles[ci] = append(in.handles[ci], h)
		}
		return nil
	})
}

type rwDriver struct {
	c         *storagetank.SyncClient
	o         *oracle
	rng       *rand.Rand
	zipf      *rand.Zipf
	handles   []storagetank.Handle
	file      int
	blk       int
	runLeft   int
	sinceSync int
	buf       []byte
}

func (sharedRW) driver(ci int, in *install, o *oracle, seed int64) driver {
	rng := rand.New(rand.NewSource(runSeed(seed, ci)))
	return &rwDriver{c: in.clients[ci], o: o, rng: rng, handles: in.handles[ci],
		zipf: rand.NewZipf(rng, rwZipfS, 1, rwFiles-1), buf: make([]byte, storagetank.BlockSize)}
}

func (d *rwDriver) step(r *opRunner) error {
	if d.sinceSync == rwSyncEvery {
		d.sinceSync = 0
		_ = r.do(kSync, d.c.SyncAll) // counted by the runner
		return nil
	}
	d.sinceSync++
	if d.runLeft == 0 {
		d.file = int(d.zipf.Uint64())
		d.blk = d.rng.Intn(blocksPerFile)
		if d.rng.Float64() < rwWriteStep {
			writeBlock(r, d.c, d.handles[d.file], blockKey{uint32(d.file), uint32(d.blk)}, d.o, d.buf)
			return nil
		}
		d.runLeft = min(1+d.rng.Intn(32), blocksPerFile-d.blk)
	}
	k := blockKey{uint32(d.file), uint32(d.blk)}
	d.blk++
	d.runLeft--
	return readBlock(r, d.c, d.handles[d.file], k, d.o)
}

// --- metadata ---------------------------------------------------------------

// metadata: each client loops create → lookup → stat → readdir → rename
// → unlink, alternating between its own directory and one shared one,
// each pre-filled with 32 entries (at most 34 while the loop runs). No
// data block is touched: only the control path works.
type metadata struct{}

const mdPrefill = 32

func (metadata) spec() liveSpec { return liveSpec{diskBlocks: 1024} }

func mdDir(ci int) string {
	if ci < 0 {
		return "/md/shared"
	}
	return fmt.Sprintf("/md/c%d", ci)
}

func (metadata) populate(in *install, o *oracle) error {
	dirs := []string{"/md", mdDir(-1)}
	for ci := range in.clients {
		dirs = append(dirs, mdDir(ci))
	}
	if err := mkdirs(in.clients[0], dirs...); err != nil {
		return err
	}
	return parallel(len(in.clients), func(ci int) error {
		c := in.clients[ci]
		for _, p := range []string{mdDir(ci), mdDir(-1)} {
			a, err := c.Lookup(p)
			if err != nil {
				return fmt.Errorf("lookup %s: %w", p, err)
			}
			in.dirInos[ci] = append(in.dirInos[ci], a.Ino)
		}
		for k := 0; k < mdPrefill; k++ {
			if _, err := c.Create(fmt.Sprintf("%s/p%d", mdDir(ci), k), false); err != nil {
				return err
			}
		}
		for k := ci; k < mdPrefill; k += len(in.clients) {
			if _, err := c.Create(fmt.Sprintf("%s/p%d", mdDir(-1), k), false); err != nil {
				return err
			}
		}
		return nil
	})
}

type mdDriver struct {
	c      *storagetank.SyncClient
	rng    *rand.Rand
	ci     int
	dirIno []msg.ObjectID // own directory, shared directory
	stage  int
	n      int
	dir    int
	name   string
	path   string
	ino    msg.ObjectID
}

func (metadata) driver(ci int, in *install, o *oracle, seed int64) driver {
	return &mdDriver{c: in.clients[ci], rng: rand.New(rand.NewSource(runSeed(seed, ci))),
		ci: ci, dirIno: in.dirInos[ci]}
}

func (d *mdDriver) step(r *opRunner) error {
	c := d.c
	switch d.stage {
	case 0:
		d.dir = d.rng.Intn(2)
		d.n++
		d.name = fmt.Sprintf("c%d-n%d", d.ci, d.n)
		if d.dir == 0 {
			d.path = mdDir(d.ci) + "/" + d.name
		} else {
			d.path = mdDir(-1) + "/" + d.name
		}
		if r.do(kMeta, func() error {
			a, err := c.Create(d.path, false)
			d.ino = a.Ino
			return err
		}) != nil {
			return nil // try a fresh name next step
		}
	case 1:
		var got msg.ObjectID
		if r.do(kMeta, func() error {
			a, err := c.Lookup(d.path)
			got = a.Ino
			return err
		}) == nil && got != d.ino {
			return fmt.Errorf("lookup %s: inode %d, created as %d", d.path, got, d.ino)
		}
	case 2:
		var got msg.ObjectID
		if r.do(kMeta, func() error {
			a, err := c.Stat(d.ino)
			got = a.Ino
			return err
		}) == nil && got != d.ino {
			return fmt.Errorf("stat %d: attributes of inode %d", d.ino, got)
		}
	case 3:
		var found bool
		if r.do(kMeta, func() error {
			es, err := c.Readdir(d.dirIno[d.dir])
			for _, e := range es {
				found = found || (e.Name == d.name && e.Ino == d.ino)
			}
			return err
		}) == nil && !found {
			return fmt.Errorf("readdir of %s misses %s", d.path, d.name)
		}
	case 4:
		_ = r.do(kMeta, func() error { return c.Rename(d.path, d.path+"r") }) // counted by the runner
	case 5:
		_ = r.do(kMeta, func() error { return c.Unlink(d.path + "r") }) // counted by the runner
	}
	d.stage = (d.stage + 1) % 6
	return nil
}

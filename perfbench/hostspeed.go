package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A host that shares its CPUs with other tenants drifts in speed: the
// same round can run twice as long for minutes at a time, and a run's
// wall-clock medians would follow that drift rather than the program.
// So a run also times a fixed reference computation, the speed probe,
// between its rounds, and reports campaign times at the reference
// speed: the measured value scaled by refProbeSecs ÷ the run's median
// probe time. The probe uses none of the program's code, so a change to
// the program moves the scaled value as it moves the measured one (up to
// what the program leaves in the shared heap and caches).
//
// The probe is a map-and-allocation workload (hashing, random map
// reads, small allocations and the garbage collection they cause) on as
// many goroutines as the workload runs. Over tens of seconds its time
// followed the simulator's on the reference host far more closely than
// a pure arithmetic loop or a pointer chase did.

const (
	// probeOps is one goroutine's work in one probe repetition.
	probeOps = 300_000
	// probeShare is the probe's share of a run: each probe point lasts
	// this share of the round before it. The probe's own noise shrinks
	// with the time it runs; the rounds' with the rounds it leaves.
	probeShare = 0.08
	// firstProbe is how long the probe point before round 0 lasts.
	firstProbe = 400 * time.Millisecond
	// refProbeSecs is the median repetition time on the reference host
	// (2-CPU Intel Xeon VM, go1.24.0), so scaled values read as seconds
	// on that host at its usual speed.
	refProbeSecs = 0.05
)

// probeSink keeps the probe's results live.
var probeSink atomic.Uint64

// hostSpeed collects a run's probe times.
type hostSpeed struct {
	workers int
	secs    []float64
}

// measure times repetitions of the probe until d has passed, at least
// one, and returns their median.
func (h *hostSpeed) measure(d time.Duration) float64 {
	first := len(h.secs)
	end := time.Now().Add(d)
	for n := 0; n == 0 || time.Now().Before(end); n++ {
		t := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < h.workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				probeSink.Add(probeWork(probeOps))
			}()
		}
		wg.Wait()
		h.secs = append(h.secs, time.Since(t).Seconds())
	}
	return median(h.secs[first:])
}

// factor is how much slower than the reference the host ran: the run's
// median probe time ÷ refProbeSecs. Scaled times are measured ones
// divided by it.
func (h *hostSpeed) factor() float64 {
	return median(h.secs) / refProbeSecs
}

// probeWork is the probe computation: a keyed table of small byte
// slices, read and filled at xorshift-random keys and dropped whenever
// it grows past its cap. Its result depends on every step, so none of
// it can be skipped.
func probeWork(n int) uint64 {
	const keys, maxLen = 50_000, 40_000
	m := make(map[uint64][]byte)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % keys
		if v, ok := m[k]; ok {
			x += uint64(len(v))
		} else {
			m[k] = make([]byte, 64+x%64)
		}
		if len(m) > maxLen {
			m = make(map[uint64][]byte)
		}
	}
	return x
}

// Set-ups and cached resubmits need a finer tracker than the probe: each
// is a short burst of work, and its time doubles or halves when the host
// switches state, which it does over tenths of a second. So each is
// followed at once by a reference operation that does the same kind of
// work with none of the program's code, and its reported time is its
// measured time × the reference operation's time on the reference host
// ÷ the median reference time of its block of refBlock operations (the
// median keeps one slow reference from distorting one sample, and a
// block is far shorter than a host state).
//
// The references: refOp, a burst of small allocations, string
// formatting, sorting, map updates and hashing, follows a sweep's cached
// rerun; refDigest, a SHA-256 pass, follows a fleet resubmit, whose time
// is mostly the digest the daemon takes of the trace file; and
// refStoreOpen follows a sweep's set-up, which is mostly a store open.

// refBlock is how many consecutive operations share one reference time.
const refBlock = 16

// refOpSecs is refOp's median time on the reference host.
const refOpSecs = 9e-6

// refOp times one reference operation.
func refOp() float64 {
	t := time.Now()
	probeSink.Add(refWork())
	return time.Since(t).Seconds()
}

// refWork is the reference operation's computation.
func refWork() uint64 {
	const n = 48
	keys := make([]string, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = "job/" + strconv.FormatUint(x%1_000_003, 16) + "/" + strconv.Itoa(i)
	}
	sort.Strings(keys)
	m := make(map[string]float64, n)
	for i, k := range keys {
		m[k] += float64(i) * 0.5
	}
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
	}
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return h.Sum64() + uint64(sum)
}

// refDigestSecs is refDigest's median time on the reference host.
const refDigestSecs = 150e-6

// refDigestData is what refDigest hashes.
var refDigestData = func() []byte {
	b := make([]byte, 256<<10)
	x := uint64(0x2545f4914f6cdd1d)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
	return b
}()

// refDigest times one SHA-256 of refDigestData.
func refDigest() float64 {
	t := time.Now()
	sum := sha256.Sum256(refDigestData)
	probeSink.Add(binary.LittleEndian.Uint64(sum[:]))
	return time.Since(t).Seconds()
}

// scaled returns times read at the reference host's speed: each time ×
// refSecs ÷ the median of refs over its block of refBlock operations.
// refs[i] is the reference operation timed right after times[i].
func scaled(times, refs []float64, refSecs float64) []float64 {
	out := make([]float64, 0, len(times))
	for lo := 0; lo < len(times); lo += refBlock {
		hi := min(lo+refBlock, len(times))
		ref := median(refs[lo:hi])
		for _, t := range times[lo:hi] {
			out = append(out, t*refSecs/ref)
		}
	}
	return out
}

// refStoreOpenSecs is refStoreOpen's median time on the reference host.
const refStoreOpenSecs = 60e-6

// refStoreOpen times the file-system calls a store open makes, without
// the program's code: a fresh directory, then create, read, truncate,
// close and reopen for append of an empty file in it.
func refStoreOpen(env *roundEnv) (float64, error) {
	t := time.Now()
	dir, err := env.freshDir()
	if err != nil {
		return 0, err
	}
	path := filepath.Join(dir, "reference.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	data, err := os.ReadFile(path)
	if err == nil {
		err = f.Truncate(int64(len(data)))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	return time.Since(t).Seconds(), nil
}

package main

import (
	"encoding/json"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// refSeconds is the reference workload's wall time on the host the timed
// metrics are expressed at: about a 2-vCPU Xeon VM with no other load.
//
// A shared host's speed drifts: the same campaign took 0.81 s in one run
// and 1.5 s in a run minutes later, its CPU time with it, and a whole
// 30-second run could fall in a slow spell. So the time each timed sample
// spent on a CPU is scaled by refSeconds over the mean of the reference's
// times measured just before and just after it (cost.scaledWall). The
// reference is fixed code (the standard library's encoding/json over a
// fixed document), so a faster or slower program still moves the scaled
// times in full, while the host's drift, which slows both alike, cancels.
// Over ten 30-second runs of each workload on a 2-vCPU Xeon VM, in which
// the reference took 47 to 97 ms, the median campaign time spread by
// 19-27% between the quartiles of the runs unscaled and by 2.5-4.2%
// scaled; in a noisier spell (42 to 119 ms) by 35-67% and 4.5-6.7%.
const refSeconds = 0.05

// reference is the calibration workload: a fixed document encoded and
// decoded with encoding/json, on as many goroutines as the campaign's
// worker budget, so that it meets the host as the campaign does.
type reference struct {
	doc     []refRecord
	workers int
}

// refRecord is one record of the reference document: strings, numbers, a
// slice and a map, as a campaign's own data mixes them.
type refRecord struct {
	Name  string         `json:"name"`
	ID    int            `json:"id"`
	Score float64        `json:"score"`
	Tags  []string       `json:"tags"`
	Sub   map[string]int `json:"sub"`
}

// Size of the reference: records in the document and encode-decode rounds
// per run, about refSeconds on the host refSeconds describes.
const (
	refRecords = 1000
	refRounds  = 10
)

// newReference builds the reference document, the same on every run and
// every machine.
func newReference(workers int) *reference {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { x ^= x << 13; x ^= x >> 7; x ^= x << 17; return x }
	doc := make([]refRecord, refRecords)
	for i := range doc {
		r := refRecord{Name: "rec" + strconv.FormatUint(next()%100000, 10), ID: i,
			Score: float64(next()%100000) / 7, Sub: map[string]int{}}
		for k := 0; k < 4; k++ {
			r.Tags = append(r.Tags, strconv.FormatUint(next()%977, 36))
			r.Sub[strconv.Itoa(k)] = int(next() % 13)
		}
		doc[i] = r
	}
	return &reference{doc: doc, workers: workers}
}

// run performs the reference workload once on each of the worker
// goroutines and returns its wall time in seconds. It starts on a freshly
// collected heap, as every timed campaign does, so that its garbage never
// adds to a campaign's and the peak RSS stays the campaigns' own.
func (ref *reference) run() float64 {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for range ref.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range refRounds {
				raw, err := json.Marshal(ref.doc)
				var back []refRecord
				if err == nil {
					err = json.Unmarshal(raw, &back)
				}
				if err != nil || len(back) != len(ref.doc) {
					panic("perfbench: the reference document does not round-trip")
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// scale is the factor that brings a time measured between two runs of the
// reference, taking before and after seconds, to the reference host.
func scale(before, after float64) float64 {
	return refSeconds / ((before + after) / 2)
}

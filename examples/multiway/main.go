// Multiway: a three-way union over the concurrent goroutine runtime, with
// coarse timestamps that produce *simultaneous tuples* (paper §4.1). The
// TSM registers and relaxed `more` condition let every equal-timestamp
// tuple flow. Whenever one of the three feeds goes quiet, the union reads
// that idle internal-timestamp source's bound in place (the clock), or
// signals demand upstream for an on-demand ETS when the source is busy.
package main

import (
	"fmt"
	"sync"
	"time"

	streammill "repro"
)

func main() {
	e := streammill.NewEngine()
	e.MustExecute(`CREATE STREAM s1 (src int, v int)`, nil)
	e.MustExecute(`CREATE STREAM s2 (src int, v int)`, nil)
	e.MustExecute(`CREATE STREAM s3 (src int, v int)`, nil)

	var mu sync.Mutex
	perSource := map[int64]int{}
	total := 0
	e.MustExecute(`SELECT * FROM s1 UNION s2 UNION s3`,
		func(t *streammill.Tuple, _ streammill.Time) {
			mu.Lock()
			perSource[t.Vals[0].AsInt()]++
			total++
			mu.Unlock()
		})

	rt, err := streammill.NewRuntime(e, streammill.RuntimeOptions{OnDemandETS: true})
	if err != nil {
		panic(err)
	}
	rt.Start()

	srcs := make([]*streammill.Source, 3)
	for i := range srcs {
		s, err := e.Source(fmt.Sprintf("s%d", i+1))
		if err != nil {
			panic(err)
		}
		srcs[i] = s
	}

	// Three producers at very different speeds. s3 sends a single burst
	// and goes quiet — without on-demand bounds the union would hold back
	// everything newer than s3's last tuple.
	var wg sync.WaitGroup
	produce := func(idx, n int, gap time.Duration) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			rt.Ingest(srcs[idx], streammill.NewData(0,
				streammill.Int(int64(idx+1)), streammill.Int(int64(i))))
			time.Sleep(gap)
		}
		rt.CloseStream(srcs[idx])
	}
	wg.Add(3)
	go produce(0, 300, 200*time.Microsecond)
	go produce(1, 100, 600*time.Microsecond)
	go produce(2, 5, 0) // burst, then silence

	wg.Wait()
	rt.Wait()

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("three-way union delivered %d tuples: s1=%d s2=%d s3=%d\n",
		total, perSource[1], perSource[2], perSource[3])
	fmt.Printf("demand-driven ETS generated: %d; bounds read in their place: %d\n",
		rt.ETSGenerated(), rt.BoundReads())
}

// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload against in-process compile daemons over loopback HTTP,
// checks every output, and prints the workload's metrics; the last line of
// standard output is one JSON object.
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one untraced window.
// With --trace 1 it runs an untraced and a traced window of half the
// length each, replays the workload's distinct inputs through the layer
// functions, and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/store"
)

// setupRepeats is how many times a run builds its system; setup_s is the
// median, and the last build serves the measured window.
const setupRepeats = 7

// lateLimit is the generator lateness (p99) beyond which a run measured
// the load generator rather than the daemon, and is discarded. The
// generator shares the process, and so its two processors, with the
// daemons: when daemon goroutines hold both, a sender whose timer fired
// waits for the Go scheduler's 10 ms preemption, and that wait is charged
// to the request, timed from its due time. Only a lag of several such
// quanta means the generator itself fell behind.
const lateLimit = 50 * time.Millisecond

// workdir holds everything a run writes: the session-drift store and the
// span dumps. It lies in the build directory the checkout ignores.
const workdir = ".bench_build/perfbench"

// options are one run's settings.
type options struct {
	window  time.Duration
	traced  bool
	minOps  int    // closed loops run until they completed this many
	workdir string // where stores and span dumps go
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve-hit, compile-cold, session-drift or cluster-herd")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "measured seconds")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	newRunner, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(*name, newRunner(*seed), *seed, options{
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		minOps:  minOps,
		workdir: workdir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(3)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		os.Exit(1)
	}
}

// windowSlices is how many equal stretches a window is cut into. Rates, costs
// and medians are taken per slice and reported as the median over slices,
// so a burst of contention from outside the process moves one slice, not
// the run's figure.
const windowSlices = 5

// window is one measured stretch of load.
type window struct {
	outs   []outcome
	u0, u1 usage
	// marks are resource readings at slice boundaries, u0 first, u1 last.
	marks         []usage
	rss           float64
	before, after counters
	// rec holds the traced window's spans; the layer replay adds its own
	// to it, so span ids never collide. nil for an untraced window.
	rec     *recorder
	problem error // a failed counter cross-check
}

func (w *window) attempted() int { return len(w.outs) }

func (w *window) failed() int {
	n := 0
	for i := range w.outs {
		if w.outs[i].failed() {
			n++
		}
	}
	return n
}

// latencies returns per-operation latency and first-chunk samples in ms; a
// failed operation counts as infinitely slow.
func (w *window) latencies() (lat, first, late []float64) {
	for i := range w.outs {
		o := &w.outs[i]
		late = append(late, ms(o.late))
		if o.failed() {
			lat = append(lat, math.Inf(1))
			first = append(first, math.Inf(1))
			continue
		}
		lat = append(lat, ms(o.latency()))
		first = append(first, ms(o.firstChunk()))
	}
	return lat, first, late
}

func measure(e *env, r runner, d time.Duration, traced bool, minOps int) (*window, error) {
	ctx := context.Background()
	runtime.GC()
	w := &window{}
	var err error
	if w.before, err = e.scrape(ctx); err != nil {
		return nil, err
	}
	var rec *recorder
	if traced {
		rec = newRecorder()
		e.rec.Store(rec)
	}
	w.u0 = readUsage()
	stop := make(chan struct{})
	marks := make(chan []usage)
	go func() {
		var m []usage
		tick := time.NewTicker(d / windowSlices)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				m = append(m, readUsage())
			case <-stop:
				marks <- m
				return
			}
		}
	}()
	w.outs = r.drive(e, d, minOps)
	w.u1 = readUsage()
	close(stop)
	w.marks = append(append([]usage{w.u0}, <-marks...), w.u1)
	// A closing stretch shorter than half a slice joins the one before.
	if n := len(w.marks); n > 2 && w.marks[n-1].at.Sub(w.marks[n-2].at) < d/windowSlices/2 {
		w.marks = append(w.marks[:n-2], w.marks[n-1])
	}
	w.rss = rssPeakMB()
	e.rec.Store(nil)
	w.rec = rec
	if w.after, err = e.scrape(ctx); err != nil {
		return nil, err
	}
	w.problem = r.check(w.outs, w.before, w.after)
	_, _, late := w.latencies()
	if p, _ := percentile(late, 0.99); p > ms(lateLimit) {
		return nil, fmt.Errorf("run invalid: the load generator ran %.2f ms late at p99 (limit %v)", p, lateLimit)
	}
	return w, nil
}

func run(name string, r runner, seed int64, opt options) (*result, error) {
	var e *env
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		e, err = r.setup(opt.workdir)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	sp, err := newSpill(opt.workdir)
	if err != nil {
		return nil, err
	}
	e.spill = sp

	res := &result{Correct: true, Metrics: map[string]metric{}}
	report := func(w *window) {
		res.Attempted += w.attempted()
		res.Failed += w.failed()
		if w.problem != nil {
			res.Correct = false
			fmt.Println("FAIL", w.problem)
		}
		for i := range w.outs {
			if o := &w.outs[i]; o.failed() {
				res.Correct = false
				fmt.Printf("FAIL op %d: %v %s\n", o.id, o.err, o.bad)
			}
		}
	}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	if !opt.traced {
		w, err := measure(e, r, opt.window, false, opt.minOps)
		if err != nil {
			return nil, err
		}
		report(w)
		if err := endToEnd(w, r, median(setups), put); err != nil {
			return nil, err
		}
		printReport(name, seed, w, res)
		return res, nil
	}

	plain, err := measure(e, r, opt.window/2, false, opt.minOps/2)
	if err != nil {
		return nil, err
	}
	report(plain)
	tw, err := measure(e, r, opt.window/2, true, opt.minOps/2)
	if err != nil {
		return nil, err
	}
	report(tw)
	dir, err := os.MkdirTemp(opt.workdir, "replay-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	liveSpans := len(tw.rec.snapshot())
	rs, err := replay(tw.rec, r.replay(tw.outs), st)
	if err != nil {
		return nil, err
	}
	all := tw.rec.snapshot()
	perLayer(name, plain, tw, all, rs, put)
	dump := filepath.Join(opt.workdir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
	if err := tw.rec.writeJSONL(dump); err != nil {
		return nil, err
	}
	fmt.Printf("%s seed %d: %d live and %d replay spans written to %s\n", name, seed, liveSpans, len(all)-liveSpans, dump)
	printReport(name, seed, tw, res)
	return res, nil
}

// endToEndUnits lists every end-to-end metric with its unit. BENCHMARK.json
// declares exactly these. fail_ratio is printed in the report but not
// listed: a metric that is 0 on a healthy run has no ratio bound, so
// success_ratio (1 - fail_ratio) carries it.
var endToEndUnits = [][2]string{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"first_chunk_p50_ms", "ms"},
	{"success_ratio", "ratio"},
	{"cpu_us_per_op", "us"},
	{"alloc_kb_per_op", "KiB"},
	{"rss_peak_mb", "MiB"},
	{"mux_degree_mean", "slots"},
	{"comm_slots_mean", "slots"},
}

// endToEnd computes the end-to-end metrics of an untraced window.
func endToEnd(w *window, r runner, setup float64, put func(string, float64, string)) error {
	units := map[string]string{}
	for _, u := range endToEndUnits {
		units[u[0]] = u[1]
	}
	set := func(name string, v float64) { put(name, v, units[name]) }
	p99, err := tailLatency(w.outs)
	if err != nil {
		return err
	}
	var rate, p50, first50, cpu, alloc []float64
	for i := 1; i < len(w.marks); i++ {
		a, b := w.marks[i-1], w.marks[i]
		var sl window
		for j := range w.outs {
			if o := &w.outs[j]; !o.end.Before(a.at) && o.end.Before(b.at) || i == len(w.marks)-1 && !o.end.Before(b.at) {
				sl.outs = append(sl.outs, *o)
			}
		}
		ok := float64(sl.attempted() - sl.failed())
		if ok == 0 {
			continue
		}
		l, f, _ := sl.latencies()
		rate = append(rate, ok/b.at.Sub(a.at).Seconds())
		p50 = append(p50, median(l))
		first50 = append(first50, median(f))
		cpu = append(cpu, us(b.cpu-a.cpu)/ok)
		alloc = append(alloc, float64(b.alloc-a.alloc)/1024/ok)
	}
	set("setup_s", setup)
	set("ops_per_s", median(rate))
	set("latency_p50_ms", median(p50))
	set("latency_p99_ms", p99)
	set("first_chunk_p50_ms", median(first50))
	set("success_ratio", 1-ratio(float64(w.failed()), float64(w.attempted())))
	set("cpu_us_per_op", median(cpu))
	set("alloc_kb_per_op", median(alloc))
	set("rss_peak_mb", w.rss)
	deg, slots := quality(w.outs, r.qualityOps(len(w.outs)))
	set("mux_degree_mean", deg)
	set("comm_slots_mean", slots)
	return nil
}

// tailLatency is the median over the window's thirds, in completion order,
// of each third's 99th percentile latency. Each third must hold enough
// samples for ten to lie beyond its percentile.
func tailLatency(outs []outcome) (float64, error) {
	sorted := append([]outcome(nil), outs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].end.Before(sorted[j].end) })
	var p99s []float64
	for k := 0; k < 3; k++ {
		part := window{outs: sorted[k*len(sorted)/3 : (k+1)*len(sorted)/3]}
		lat, _, _ := part.latencies()
		p, enough := percentile(lat, 0.99)
		if !enough {
			return 0, fmt.Errorf("run invalid: %d samples leave fewer than %d beyond the 99th percentile of each third", len(outs), minBeyond)
		}
		p99s = append(p99s, p)
	}
	return median(p99s), nil
}

// quality returns the mean multiplexing degree over the compiled phases,
// and the mean predicted slots of one program iteration, over the distinct
// artifacts (by key) that the window's successful operations with an input
// id among its first limit were served.
func quality(outs []outcome, limit int) (degree, slots float64) {
	first := math.MaxInt
	for i := range outs {
		first = min(first, outs[i].id)
	}
	idx := make([]int, 0, limit)
	for i := range outs {
		if !outs[i].failed() && outs[i].id-first < limit {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return outs[idx[a]].id < outs[idx[b]].id })
	var degs, per []float64
	seen := map[string]bool{}
	for _, i := range idx {
		o := &outs[i]
		if seen[o.key] {
			continue
		}
		seen[o.key] = true
		if o.session {
			res, err := o.reply.session()
			if err != nil {
				continue
			}
			per = append(per, float64(res.Trailer.TotalSlots))
			for _, ph := range res.Phases {
				degs = append(degs, float64(ph.Result.Degree))
			}
			continue
		}
		_, res, err := o.reply.result()
		if err != nil {
			continue
		}
		per = append(per, float64(res.TotalSlots))
		for _, ph := range res.Phases {
			degs = append(degs, float64(ph.Degree))
		}
	}
	return mean(degs), mean(per)
}

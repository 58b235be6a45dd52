// Command mmtrace summarises and compares deterministic simulation
// traces (the JSONL files cmd/mmsim -trace and cmd/mmscale -trace
// write). The summary reports event counts, span latency percentiles
// (registration accept, handoff commit, handoff-to-first-data, fault
// recovery), the injected fault windows, the session-survival recovery
// curve and every sampled time series. With -diff it aligns two traces
// and reports what moved; with -chrome it converts a trace to the
// Chrome trace-event format (load via chrome://tracing or Perfetto).
//
// Example:
//
//	mmtrace run.jsonl
//	mmtrace -timeline run.jsonl             # chronological handoff/fault timeline
//	mmtrace -diff before.jsonl after.jsonl
//	mmtrace -chrome out.json run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmtrace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mmtrace", flag.ContinueOnError)
	var (
		diff     = fs.Bool("diff", false, "compare two traces: mmtrace -diff a.jsonl b.jsonl")
		chrome   = fs.String("chrome", "", "convert the trace to Chrome trace-event JSON at this path")
		timeline = fs.Bool("timeline", false, "print the chronological handoff and fault timeline")
		alerts   = fs.Bool("alerts", false, "print the per-rule alert raise/clear timeline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	switch {
	case *diff:
		if len(paths) != 2 {
			return fmt.Errorf("-diff needs exactly two trace files, got %d", len(paths))
		}
		a, err := load(paths[0])
		if err != nil {
			return err
		}
		b, err := load(paths[1])
		if err != nil {
			return err
		}
		printDiff(out, paths[0], paths[1], a, b)
		return nil
	case len(paths) != 1:
		return fmt.Errorf("need exactly one trace file, got %d", len(paths))
	}
	tr, err := load(paths[0])
	if err != nil {
		return err
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		werr := tr.WriteChrome(f)
		cerr := f.Close()
		if werr != nil {
			return werr
		}
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(out, "wrote %s (%d events, %d series)\n", *chrome, len(tr.Events()), len(tr.AllSeries()))
		return nil
	}
	printSummary(out, tr)
	if *timeline {
		printTimeline(out, tr)
	}
	if *alerts {
		printAlerts(out, tr)
	}
	return nil
}

func load(path string) (*obs.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := obs.ReadJSONL(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// spanFamilies maps the event kinds whose Val field carries a span
// duration in nanoseconds to a display label. Percentiles are computed
// straight from these values: the emitting site already measured the
// span against virtual time.
var spanFamilies = []struct {
	kind  obs.Kind
	label string
}{
	{obs.KindRegAccept, "registration latency"},
	{obs.KindHandoffCommit, "handoff commit latency"},
	{obs.KindHandoffFirstData, "handoff -> first data"},
	{obs.KindRecoveryT90, "fault recovery (t90)"},
}

// spans collects the span durations of one family, in emission order.
func spans(tr *obs.Trace, kind obs.Kind) []time.Duration {
	var out []time.Duration
	for _, e := range tr.Events() {
		if e.Kind == kind {
			out = append(out, time.Duration(e.Val))
		}
	}
	return out
}

// percentile returns the q-quantile of vals by the nearest-rank method
// (deterministic, no interpolation). vals must be sorted ascending.
func percentile(vals []time.Duration, q float64) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	idx := int(q*float64(len(vals))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}

func printSummary(out io.Writer, tr *obs.Trace) {
	m := tr.Meta
	fmt.Fprintf(out, "trace: scheme=%s seed=%d mns=%d duration=%v\n", m.Scheme, m.Seed, m.MNs, m.Duration)
	fmt.Fprintf(out, "  %d events (%d dropped), %d sampling rounds, %d series\n",
		len(tr.Events()), tr.Dropped(), tr.Samples(), len(tr.AllSeries()))
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(out, "  WARNING: %d events dropped at capacity; counts and spans below are incomplete\n", d)
	}

	counts := make(map[obs.Kind]int)
	for _, e := range tr.Events() {
		counts[e.Kind]++
	}
	if r, c := counts[obs.KindAlertRaise], counts[obs.KindAlertClear]; r > 0 || c > 0 || len(tr.RuleNames()) > 0 {
		fmt.Fprintf(out, "  alerts: %d raised, %d cleared across %d rules (-alerts prints the timeline)\n",
			r, c, len(tr.RuleNames()))
	}
	fmt.Fprintln(out, "\nevent counts:")
	for _, k := range obs.Kinds() {
		if counts[k] > 0 {
			fmt.Fprintf(out, "  %-20s %d\n", k, counts[k])
		}
	}

	if n, a := counts[obs.KindRegRetry], counts[obs.KindRegAttempt]; a > 0 {
		fmt.Fprintf(out, "\nregistration: %d attempts, %d retries (%.2f per attempt), %d exhausted, %d expired\n",
			a, n, float64(n)/float64(a), counts[obs.KindRegExhausted], counts[obs.KindRegExpire])
	}

	fmt.Fprintln(out, "\nspan latencies:")
	for _, fam := range spanFamilies {
		vals := spans(tr, fam.kind)
		if len(vals) == 0 {
			continue
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		fmt.Fprintf(out, "  %-22s n=%-5d p50=%-10v p90=%-10v p99=%-10v max=%v\n",
			fam.label, len(vals),
			percentile(vals, 0.50), percentile(vals, 0.90),
			percentile(vals, 0.99), vals[len(vals)-1])
	}

	printRecovery(out, tr)
	printDegrade(out, tr, counts)

	if series := tr.AllSeries(); len(series) > 0 {
		fmt.Fprintln(out, "\nseries:")
		for _, s := range series {
			if len(s.Val) == 0 {
				fmt.Fprintf(out, "  %-26s (no samples)\n", s.Name)
				continue
			}
			min, max, sum := s.Val[0], s.Val[0], 0.0
			for _, v := range s.Val {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
				sum += v
			}
			fmt.Fprintf(out, "  %-26s n=%-4d min=%-12.4g mean=%-12.4g max=%-12.4g last=%.4g\n",
				s.Name, len(s.Val), min, sum/float64(len(s.Val)), max, s.Val[len(s.Val)-1])
		}
	}
}

// printRecovery renders the session-survival recovery curve: the
// registered fraction's dip under each fault window and when it came
// back. Only changes print, so a flat curve stays one line.
func printRecovery(out io.Writer, tr *obs.Trace) {
	s := tr.Lookup("session.registered_frac")
	if s == nil || len(s.Val) == 0 {
		return
	}
	fmt.Fprintln(out, "\nrecovery curve (session.registered_frac):")
	prev := s.Val[0]
	fmt.Fprintf(out, "  %-10v %.4f\n", s.At[0], prev)
	for i := 1; i < len(s.Val); i++ {
		if s.Val[i] != prev {
			prev = s.Val[i]
			fmt.Fprintf(out, "  %-10v %.4f\n", s.At[i], prev)
		}
	}
}

// degradeKinds are the graceful-degradation event kinds in declaration
// order, shared between the summary and diff renderings.
var degradeKinds = []obs.Kind{
	obs.KindDegradePreempt, obs.KindDegradeVideoStepDown, obs.KindDegradeVideoStepUp,
	obs.KindDegradeDefer, obs.KindBreakerOpen, obs.KindBreakerHalfOpen, obs.KindBreakerClose,
}

// printDegrade renders the graceful-degradation section: video ladder
// step counts, admission deferrals/preemptions, and the registration
// breaker's open/half-open/close timeline. Traces recorded before the
// degradation layer existed (or with Degrade unarmed) carry none of
// these events; the section says so explicitly instead of vanishing.
func printDegrade(out io.Writer, tr *obs.Trace, counts map[obs.Kind]int) {
	fmt.Fprintln(out, "\ndegradation:")
	total := 0
	for _, k := range degradeKinds {
		total += counts[k]
	}
	if total == 0 {
		fmt.Fprintln(out, "  (no degrade.* events: degradation not armed, or the trace predates it)")
		return
	}
	fmt.Fprintf(out, "  video: %d stepdowns, %d stepups\n",
		counts[obs.KindDegradeVideoStepDown], counts[obs.KindDegradeVideoStepUp])
	var flushed int64
	for _, e := range tr.Events() {
		if e.Kind == obs.KindDegradePreempt {
			flushed += e.Val
		}
	}
	fmt.Fprintf(out, "  admission: %d deferred, %d preempted (%d buffered packets flushed)\n",
		counts[obs.KindDegradeDefer], counts[obs.KindDegradePreempt], flushed)
	opens := counts[obs.KindBreakerOpen] + counts[obs.KindBreakerHalfOpen] + counts[obs.KindBreakerClose]
	if opens == 0 {
		fmt.Fprintln(out, "  breaker: never opened")
		return
	}
	fmt.Fprintln(out, "  breaker timeline:")
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.KindBreakerOpen:
			fmt.Fprintf(out, "    %-12v open       (queued=%d)\n", e.At, e.Val)
		case obs.KindBreakerHalfOpen:
			fmt.Fprintf(out, "    %-12v half-open  (queue drained)\n", e.At)
		case obs.KindBreakerClose:
			fmt.Fprintf(out, "    %-12v closed     (recovery probe conformed)\n", e.At)
		}
	}
}

// printTimeline renders handoff and fault events chronologically (they
// are already stored in emission = virtual-time order).
func printTimeline(out io.Writer, tr *obs.Trace) {
	fmt.Fprintln(out, "\ntimeline (handoff + fault events):")
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.KindHandoffTrigger, obs.KindHandoffRequest, obs.KindHandoffDetach,
			obs.KindHandoffCommit, obs.KindHandoffFirstData, obs.KindRouteUpdate,
			obs.KindFaultStationDown, obs.KindFaultStationUp,
			obs.KindFaultLinkDegrade, obs.KindFaultLinkRestore,
			obs.KindFaultFadeStart, obs.KindFaultFadeEnd, obs.KindRecoveryT90:
			fmt.Fprintf(out, "  %-12v %-20s actor=%-4d cell=%-4d aux=%-4d val=%d\n",
				e.At, e.Kind, e.Actor, e.Cell, e.Aux, e.Val)
		}
	}
}

// alertVal renders the ppm fixed-point value carried in alert events'
// Val field back as the float the rule compared against its threshold.
func alertVal(ppm int64) string {
	return fmt.Sprintf("%.4f", float64(ppm)/1e6)
}

// printAlerts renders the per-rule alert timeline: every raise paired
// with its clear (rules are identified by the Aux index the monitor
// stamps on both events), alerts still active at the end of the run
// annotated as open. Traces written before monitors existed carry no
// rule declarations; the section says so instead of printing nothing.
func printAlerts(out io.Writer, tr *obs.Trace) {
	fmt.Fprintln(out, "\nalert timeline:")
	names := tr.RuleNames()
	if len(names) == 0 {
		fmt.Fprintln(out, "  (trace declares no monitor rules)")
		return
	}
	type openAlert struct {
		at  time.Duration
		val int64
	}
	open := make(map[int32]openAlert, len(names))
	fired := false
	for _, e := range tr.Events() {
		switch e.Kind {
		case obs.KindAlertRaise:
			open[e.Aux] = openAlert{e.At, e.Val}
		case obs.KindAlertClear:
			o, ok := open[e.Aux]
			if !ok {
				continue
			}
			delete(open, e.Aux)
			fired = true
			fmt.Fprintf(out, "  %-12v %-24s raised at %s, cleared after %v at %s\n",
				o.at, tr.RuleName(e.Aux), alertVal(o.val), e.At-o.at, alertVal(e.Val))
		}
	}
	// Alerts never cleared: report in rule-declaration order so the
	// rendering stays deterministic regardless of map iteration.
	for aux := range names {
		if o, ok := open[int32(aux)]; ok {
			fired = true
			fmt.Fprintf(out, "  %-12v %-24s raised at %s, still active at end of trace\n",
				o.at, tr.RuleName(int32(aux)), alertVal(o.val))
		}
	}
	if !fired {
		fmt.Fprintf(out, "  (no alerts fired across %d rules)\n", len(names))
	}
}

// printDiff aligns two traces and reports event-count deltas, span
// percentile shifts and series mean shifts.
func printDiff(out io.Writer, pathA, pathB string, a, b *obs.Trace) {
	fmt.Fprintf(out, "diff: A=%s (scheme=%s seed=%d)  B=%s (scheme=%s seed=%d)\n",
		pathA, a.Meta.Scheme, a.Meta.Seed, pathB, b.Meta.Scheme, b.Meta.Seed)
	fmt.Fprintf(out, "  events: A=%d B=%d (%+d)   samples: A=%d B=%d\n",
		len(a.Events()), len(b.Events()), len(b.Events())-len(a.Events()),
		a.Samples(), b.Samples())

	ca, cb := make(map[obs.Kind]int), make(map[obs.Kind]int)
	for _, e := range a.Events() {
		ca[e.Kind]++
	}
	for _, e := range b.Events() {
		cb[e.Kind]++
	}
	fmt.Fprintln(out, "\nevent counts (A -> B):")
	for _, k := range obs.Kinds() {
		if ca[k] == 0 && cb[k] == 0 {
			continue
		}
		marker := ""
		if ca[k] != cb[k] {
			marker = "  *"
		}
		fmt.Fprintf(out, "  %-20s %6d -> %-6d (%+d)%s\n", k, ca[k], cb[k], cb[k]-ca[k], marker)
	}
	if ca[obs.KindAlertRaise]+cb[obs.KindAlertRaise]+ca[obs.KindAlertClear]+cb[obs.KindAlertClear] > 0 {
		fmt.Fprintf(out, "\nalerts: raised %d -> %d (%+d), cleared %d -> %d (%+d)\n",
			ca[obs.KindAlertRaise], cb[obs.KindAlertRaise], cb[obs.KindAlertRaise]-ca[obs.KindAlertRaise],
			ca[obs.KindAlertClear], cb[obs.KindAlertClear], cb[obs.KindAlertClear]-ca[obs.KindAlertClear])
	}

	fmt.Fprintln(out, "\ndegradation (A -> B):")
	degTotal := 0
	for _, k := range degradeKinds {
		degTotal += ca[k] + cb[k]
	}
	if degTotal == 0 {
		fmt.Fprintln(out, "  (neither trace carries degradation events)")
	} else {
		fmt.Fprintf(out, "  stepdowns %d -> %d (%+d), stepups %d -> %d (%+d)\n",
			ca[obs.KindDegradeVideoStepDown], cb[obs.KindDegradeVideoStepDown],
			cb[obs.KindDegradeVideoStepDown]-ca[obs.KindDegradeVideoStepDown],
			ca[obs.KindDegradeVideoStepUp], cb[obs.KindDegradeVideoStepUp],
			cb[obs.KindDegradeVideoStepUp]-ca[obs.KindDegradeVideoStepUp])
		fmt.Fprintf(out, "  deferred %d -> %d (%+d), preempted %d -> %d (%+d)\n",
			ca[obs.KindDegradeDefer], cb[obs.KindDegradeDefer],
			cb[obs.KindDegradeDefer]-ca[obs.KindDegradeDefer],
			ca[obs.KindDegradePreempt], cb[obs.KindDegradePreempt],
			cb[obs.KindDegradePreempt]-ca[obs.KindDegradePreempt])
		fmt.Fprintf(out, "  breaker opens %d -> %d (%+d), closes %d -> %d (%+d)\n",
			ca[obs.KindBreakerOpen], cb[obs.KindBreakerOpen],
			cb[obs.KindBreakerOpen]-ca[obs.KindBreakerOpen],
			ca[obs.KindBreakerClose], cb[obs.KindBreakerClose],
			cb[obs.KindBreakerClose]-ca[obs.KindBreakerClose])
	}

	fmt.Fprintln(out, "\nspan latencies (A -> B):")
	for _, fam := range spanFamilies {
		va, vb := spans(a, fam.kind), spans(b, fam.kind)
		if len(va) == 0 && len(vb) == 0 {
			continue
		}
		sort.Slice(va, func(i, j int) bool { return va[i] < va[j] })
		sort.Slice(vb, func(i, j int) bool { return vb[i] < vb[j] })
		fmt.Fprintf(out, "  %-22s p50 %v -> %v   p99 %v -> %v\n",
			fam.label,
			percentile(va, 0.50), percentile(vb, 0.50),
			percentile(va, 0.99), percentile(vb, 0.99))
	}

	fmt.Fprintln(out, "\nseries means (A -> B):")
	seen := make(map[string]bool)
	for _, s := range append(append([]*obs.Series{}, a.AllSeries()...), b.AllSeries()...) {
		if seen[s.Name] {
			continue
		}
		seen[s.Name] = true
		ma, oka := seriesMean(a.Lookup(s.Name))
		mb, okb := seriesMean(b.Lookup(s.Name))
		switch {
		case oka && okb:
			fmt.Fprintf(out, "  %-26s %.4g -> %.4g\n", s.Name, ma, mb)
		case oka:
			fmt.Fprintf(out, "  %-26s %.4g -> (absent)\n", s.Name, ma)
		case okb:
			fmt.Fprintf(out, "  %-26s (absent) -> %.4g\n", s.Name, mb)
		}
	}
}

func seriesMean(s *obs.Series) (float64, bool) {
	if s == nil || len(s.Val) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, v := range s.Val {
		sum += v
	}
	return sum / float64(len(s.Val)), true
}

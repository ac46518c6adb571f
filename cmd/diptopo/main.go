// Command diptopo runs a DIP network described by a topology/scenario file
// on the virtual-time simulator and reports deliveries plus per-router
// telemetry. See internal/topo for the file syntax.
//
//	diptopo scenario.topo
//	diptopo -q scenario.topo      # deliveries only, no event log
//	diptopo -sample 10ms x.topo   # also print per-interval counter deltas
//	diptopo -journeys x.topo      # stitched per-packet journey waterfalls
//	diptopo -journeys -journey-every 8 x.topo  # sample 1-in-8 per router
//	diptopo -int 1 x.topo         # in-band telemetry + per-link heatmap
//
// Example file:
//
//	router R1 cache=16
//	router R2
//	host   C
//	host   P
//	link C R1:0
//	link R1:1 R2:0 2ms
//	link R2:1 P
//	name R1 aa000000/8 1
//	name R2 aa000000/8 1
//	produce P aa000001 "the bits"
//	interest C aa000001
//	interest C aa000001 at 100ms
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"dip/internal/inband"
	"dip/internal/journey"
	"dip/internal/telemetry"
	"dip/internal/topo"
)

func main() {
	quiet := flag.Bool("q", false, "suppress the event log")
	sample := flag.Duration("sample", 0, "snapshot router counters every interval of virtual time (0 = off)")
	journeys := flag.Bool("journeys", false, "stitch and print per-packet journey waterfalls")
	journeyEvery := flag.Int("journey-every", 1, "journey-sample every Nth packet per router (with -journeys)")
	intEvery := flag.Int("int", 0, "stamp in-band telemetry on every Nth injected packet (0 = only if the file says int=)")
	intSlots := flag.Int("int-slots", 0, "F_tel hop-record slots per stamped packet (with -int; 0 = file/default)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: diptopo [-q] <file.topo>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	t, err := topo.Parse(f)
	if err != nil {
		log.Fatalf("%s: %v", flag.Arg(0), err)
	}
	if !*quiet {
		t.Log = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}
	if *journeys {
		t.EnableJourneys(*journeyEvery)
	}
	if *intEvery > 0 {
		t.EnableINT(*intEvery, *intSlots)
	}
	if err := t.Build(); err != nil {
		log.Fatalf("%s: %v", flag.Arg(0), err)
	}
	defer t.Close()
	deliveries, series := t.RunSampled(*sample)
	fmt.Printf("\n%d deliveries:\n", len(deliveries))
	for _, d := range deliveries {
		fmt.Printf("  [%8v] %-8s %-8s %q\n", d.At, d.Host, d.Profile, d.Payload)
	}
	fmt.Println()
	t.Report(os.Stdout)
	if len(series) > 1 {
		printSeries(series)
	}
	if c := t.Journeys(); c != nil {
		printJourneys(c)
	}
	if c := t.INT(); c != nil {
		printINT(c)
	}
}

// intShade maps a bucket count to a heatmap cell: ramp position is the
// count's share of the row maximum, so each link's latency mode reads as
// the darkest cell and spread shows as lighter neighbours.
const intShade = " .:-=+*#%@"

func shadeCell(count, rowMax int64) byte {
	if count == 0 || rowMax == 0 {
		return intShade[0]
	}
	i := 1 + int((count*int64(len(intShade)-2))/rowMax)
	if i >= len(intShade) {
		i = len(intShade) - 1
	}
	return intShade[i]
}

// printINT renders the in-band telemetry summary: collector counters, the
// per-link latency heatmap (log2 buckets, darkest = modal latency), per-hop
// aggregates, and the retained path-change ring.
func printINT(c *inband.Collector) {
	st := c.Stats()
	fmt.Printf("\nin-band telemetry: postcards=%d overflows=%d flows=%d changes=%d loops=%d microbursts=%d mismatches=%d decode_errors=%d\n",
		st.Postcards, st.Overflows, st.Flows, st.PathChanges, st.Loops,
		st.Microbursts, st.ExpectedMismatch, st.DecodeErrors)
	if len(st.Links) > 0 {
		// Trim the heatmap to the occupied bucket range across all links.
		lo, hi := telemetry.HistBuckets, -1
		for _, l := range st.Links {
			for b, n := range l.Hist {
				if n == 0 {
					continue
				}
				if b < lo {
					lo = b
				}
				if b > hi {
					hi = b
				}
			}
		}
		if hi < 0 {
			lo, hi = 0, 0
		}
		fmt.Printf("link latency heatmap (log2 buckets %v..%v):\n",
			telemetry.BucketUpper(lo), telemetry.BucketUpper(hi))
		for _, l := range st.Links {
			var rowMax int64
			for _, n := range l.Hist {
				if n > rowMax {
					rowMax = n
				}
			}
			row := make([]byte, hi-lo+1)
			for b := lo; b <= hi; b++ {
				row[b-lo] = shadeCell(l.Hist[b], rowMax)
			}
			mean := time.Duration(0)
			if l.Count > 0 {
				mean = time.Duration(l.SumNs / l.Count)
			}
			fmt.Printf("  %-8s > %-8s |%s| n=%-6d mean=%v\n",
				intLabel(l.FromName, l.From), intLabel(l.ToName, l.To), row, l.Count, mean)
		}
	}
	for _, h := range st.Hops {
		meanLat, meanQ := int64(0), int64(0)
		if h.Count > 0 {
			meanLat, meanQ = h.LatSumNs/h.Count, h.QueueSum/h.Count
		}
		fmt.Printf("  hop %-8s records=%-6d lat_mean=%-10v queue_mean=%d queue_max=%d congested=%d microbursts=%d\n",
			intLabel(h.Name, h.HopID), h.Count, time.Duration(meanLat),
			meanQ, h.QueueMax, h.Congested, h.Microbursts)
	}
	for _, ch := range st.Changes {
		fmt.Printf("  path change [%8v] flow=%016x %v -> %v\n",
			time.Duration(ch.At), ch.Flow, ch.OldHops, ch.NewHops)
	}
}

func intLabel(name string, id uint32) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("#%d", id)
}

// printJourneys renders each stitched journey's summary line and waterfall
// (internal/journey's own text form, so dipdump re-renders the output),
// then the anomaly flight recorder and the per-path aggregates.
func printJourneys(c *journey.Collector) {
	all := c.Journeys()
	fmt.Printf("journeys (%d stitched):\n", len(all))
	for _, j := range all {
		fmt.Print(j.String())
	}
	if frozen := c.Flight().Entries(); len(frozen) > 0 {
		fmt.Printf("\nflight recorder (%d anomalies retained):\n", len(frozen))
		for _, e := range frozen {
			fmt.Print(e.String())
		}
	}
	st := c.Stats()
	fmt.Printf("\njourney stats: spans=%d complete=%d incomplete=%d frozen=%d duplicates=%d\n",
		st.Spans, st.Complete, st.Incomplete, st.Frozen, st.Duplicates)
	for _, ps := range st.Paths {
		mean := int64(0)
		if ps.Count > 0 {
			mean = (ps.FNNs + ps.QueueNs + ps.WireNs + ps.PITWaitNs) / ps.Count
		}
		fmt.Printf("  path %-30s proto=%-12s n=%-5d mean=%dns (fn=%dns queue=%dns wire=%dns pitwait=%dns)\n",
			ps.Path, ps.Proto, ps.Count, mean, ps.FNNs, ps.QueueNs, ps.WireNs, ps.PITWaitNs)
	}
}

// printSeries renders each sampling interval's counter deltas, one line per
// router that saw traffic in that interval.
func printSeries(series []topo.Sample) {
	names := make([]string, 0, len(series[0].Routers))
	for n := range series[0].Routers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("time series (per-interval deltas):")
	for i := 1; i < len(series); i++ {
		for _, n := range names {
			d := series[i].Routers[n].Delta(series[i-1].Routers[n])
			if d.Received == 0 && len(d.Events) == 0 {
				continue
			}
			fmt.Printf("  [%8v] %-8s +recv=%d +fwd=%d +deliver=%d +absorb=%d +drop=%d",
				series[i].At, n, d.Received, d.Forwarded, d.Delivered, d.Absorbed, d.Dropped)
			events := make([]string, 0, len(d.Events))
			for e, c := range d.Events {
				events = append(events, fmt.Sprintf(" +%s=%d", e, c))
			}
			sort.Strings(events)
			for _, e := range events {
				fmt.Print(e)
			}
			fmt.Println()
		}
	}
}

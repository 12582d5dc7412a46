package experiment

import (
	"fmt"
	"strings"
)

// renderThroughput renders a sweep as the paper's Fig. 2/Fig. 3 panels:
// one table per location, rows = workload (concurrent users), columns =
// number of slaves, cells = end-to-end throughput in operations/second.
func (sw *Sweep) renderThroughput(title string) string {
	return sw.render(title, "throughput (ops/s)", func(loc Location, slaves, users int) float64 {
		return sw.Throughput(loc, slaves, users)
	}, "%8.2f")
}

// renderDelay renders a sweep as the paper's Fig. 5/Fig. 6 panels: average
// relative replication delay in milliseconds.
func (sw *Sweep) renderDelay(title string) string {
	return sw.render(title, "avg relative replication delay (ms)", func(loc Location, slaves, users int) float64 {
		return sw.RelativeDelay(loc, slaves, users)
	}, "%10.1f")
}

func (sw *Sweep) render(title, metric string, cell func(Location, int, int) float64, cellFmt string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", title, metric)
	fmt.Fprintf(&b, "read/write ratio %.0f/%.0f, initial data size %d, master us-west-1a\n\n",
		sw.ReadRatio*100, (1-sw.ReadRatio)*100, sw.Scale)
	for _, loc := range sw.Locs {
		fmt.Fprintf(&b, "(%s)\n", loc)
		fmt.Fprintf(&b, "%-7s", "users")
		for _, ns := range sw.SlaveNums {
			fmt.Fprintf(&b, " %8s", fmt.Sprintf("%d slv", ns))
		}
		b.WriteString("\n")
		for _, us := range sw.UserNums {
			fmt.Fprintf(&b, "%-7d", us)
			for _, ns := range sw.SlaveNums {
				fmt.Fprintf(&b, " "+cellFmt, cell(loc, ns, us))
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// renderSaturation prints the saturation analysis of §IV-A: for every
// (location, slaves) pair, the observed maximum throughput and the
// workload right after it.
func (sw *Sweep) renderSaturation(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — saturation points (workload right after the observed max throughput)\n\n", title)
	for _, loc := range sw.Locs {
		fmt.Fprintf(&b, "(%s)\n", loc)
		fmt.Fprintf(&b, "%-8s %14s %18s %12s %12s\n", "slaves", "max tp (ops/s)", "saturation users", "master util", "slave util")
		for _, ns := range sw.SlaveNums {
			users, maxTp, ok := sw.SaturationPoint(loc, ns)
			satCell := "not reached"
			if ok {
				satCell = fmt.Sprintf("%d", users)
			}
			// Utilizations at the point of max throughput.
			bestUsers := sw.UserNums[0]
			for _, us := range sw.UserNums {
				if sw.Throughput(loc, ns, us) >= sw.Throughput(loc, ns, bestUsers) {
					bestUsers = us
				}
			}
			r := sw.Results[Key{loc, ns, bestUsers}]
			var slaveU float64
			for _, u := range r.SlaveUtil {
				slaveU += u
			}
			if len(r.SlaveUtil) > 0 {
				slaveU /= float64(len(r.SlaveUtil))
			}
			fmt.Fprintf(&b, "%-8d %14.2f %18s %11.0f%% %11.0f%%\n", ns, maxTp, satCell, r.MasterUtil*100, slaveU*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// csv emits the sweep as CSV (figure, location, slaves, users,
// throughput, relative delay) for external plotting.
func (sw *Sweep) csv() string {
	var b strings.Builder
	b.WriteString("location,slaves,users,throughput_ops,read_tp,write_tp,rel_delay_ms,raw_delay_ms,master_util,errors\n")
	for _, loc := range sw.Locs {
		for _, ns := range sw.SlaveNums {
			for _, us := range sw.UserNums {
				r := sw.Results[Key{loc, ns, us}]
				fmt.Fprintf(&b, "%q,%d,%d,%.3f,%.3f,%.3f,%.2f,%.2f,%.3f,%d\n",
					loc.String(), ns, us, r.Throughput, r.ReadThroughput, r.WriteThroughput,
					sw.RelativeDelay(loc, ns, us), r.AvgDelayMs, r.MasterUtil, r.Errors)
			}
		}
	}
	return b.String()
}

// renderFig4 prints the clock experiment the way the paper reports it.
func renderFig4(once, everySecond ClockResult) string {
	var b strings.Builder
	b.WriteString("Fig. 4 — measured time differences between two instances (20 min, 1 sample/s)\n\n")
	for _, r := range []ClockResult{once, everySecond} {
		fmt.Fprintf(&b, "%-28s median=%6.2f ms  σ=%6.2f ms  min=%6.2f  max=%6.2f\n",
			r.Label+":", r.Stats.Median, r.Stats.StdDev, r.Stats.Min, r.Stats.Max)
	}
	b.WriteString("\npaper reports: sync once — median 28.23 ms, σ 12.31 (7 ms rising to 50 ms);\n")
	b.WriteString("               sync every second — median 3.30 ms, σ 1.19 (stable 1–8 ms band)\n")
	// A coarse timeline, one point per minute, to show the ramp vs the band.
	b.WriteString("\ntimeline (ms at minute marks):\n")
	for _, r := range []ClockResult{once, everySecond} {
		fmt.Fprintf(&b, "%-28s", r.Label+":")
		for m := 0; m < 20; m++ {
			fmt.Fprintf(&b, " %5.1f", r.SamplesM[m*60])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// fig4CSV is the per-second sample timeline of both NTP regimes.
func fig4CSV(once, everySecond ClockResult) string {
	var b strings.Builder
	b.WriteString("second,sync_once_ms,sync_every_second_ms\n")
	for i := range once.SamplesM {
		fmt.Fprintf(&b, "%d,%.3f,%.3f\n", i+1, once.SamplesM[i], everySecond.SamplesM[i])
	}
	return b.String()
}

// renderRTT prints the in-text half-RTT measurements (§IV-B.2).
func renderRTT(rows []RTTResult) string {
	var b strings.Builder
	b.WriteString("T-RTT — 1/2 round-trip time from master (us-west-1a), ping 1/s for 20 min\n\n")
	fmt.Fprintf(&b, "%-32s %10s %10s %10s %10s\n", "slave location", "mean (ms)", "median", "min", "max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-32s %10.1f %10.1f %10.1f %10.1f\n", r.Loc, r.HalfRTTMs, r.MedianMs, r.MinMs, r.MaxMs)
	}
	b.WriteString("\npaper reports: 16 ms same zone, 21 ms different zone, 173 ms different region\n")
	return b.String()
}

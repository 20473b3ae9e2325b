package pipeline

// Telemetry glue: the sampled-observation path behind the single
// `p.probe != nil` check in Run. Everything here is observational — no
// field read here may mutate model state, which is what keeps golden
// stats bit-identical with the probe on.

// probeSample records one occupancy observation and schedules the next
// sample.
func (p *Pipeline) probeSample() {
	p.probe.Sample(p.cycle, p.ruuCount, p.lsqCount, p.ifqCount)
	p.probeNext = p.cycle + p.probe.Interval()
}

// routeName renders a route for trace args.
func routeName(r Route) string {
	switch r {
	case RouteDL1:
		return "dl1"
	case RouteStack:
		return "stackcache"
	case RouteSVF:
		return "svf"
	case RouteRSE:
		return "rse"
	default:
		return ""
	}
}

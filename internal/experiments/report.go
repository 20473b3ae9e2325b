package experiments

import (
	"fmt"
	"html"
	"strings"
)

// ReportBuilder assembles a single self-contained HTML report: every table
// as preformatted text, every figure inlined as SVG. Used by
// `svfexp -html`.
type ReportBuilder struct {
	sections []reportSection
	charts   map[string]string // "figN" → SVG
}

type reportSection struct {
	title, table string
}

// AddSection records one experiment's rendered table under its title.
func (r *ReportBuilder) AddSection(title, table string) {
	r.sections = append(r.sections, reportSection{title: title, table: table})
}

// AddChart records a figure's SVG for inlining; it is matched to a section
// whose title starts with "Figure N:".
func (r *ReportBuilder) AddChart(c ChartSVG) {
	if r.charts == nil {
		r.charts = map[string]string{}
	}
	r.charts[strings.TrimSuffix(c.Name, ".svg")] = c.SVG
}

// Render produces the final HTML document.
func (r *ReportBuilder) Render() string {
	var b strings.Builder
	b.WriteString(`<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>Stack Value File — reproduction report</title>
<style>
  body { font-family: sans-serif; max-width: 1080px; margin: 2rem auto; color: #0b0b0b; background: #fcfcfb; }
  h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2.2rem; }
  pre { background: #f4f3f0; padding: .8rem; overflow-x: auto; font-size: .8rem; line-height: 1.35; }
  .fig { margin: 1rem 0; }
  p.src { color: #52514e; font-size: .85rem; }
</style></head><body>
<h1>Stack Value File: Custom Microarchitecture for the Stack — reproduction report</h1>
<p class="src">Lee, Smelyanskiy, Newburn, Tyson — HPCA 2001. Generated by <code>svfexp -html</code>;
see EXPERIMENTS.md for paper-vs-measured commentary.</p>
`)
	for _, s := range r.sections {
		fmt.Fprintf(&b, "<h2>%s</h2>\n", html.EscapeString(s.title))
		for key, svg := range r.charts {
			figNo := strings.TrimPrefix(key, "fig")
			if strings.HasPrefix(s.title, "Figure "+figNo+":") {
				fmt.Fprintf(&b, "<div class=%q>%s</div>\n", "fig", svg)
				break
			}
		}
		fmt.Fprintf(&b, "<pre>%s</pre>\n", html.EscapeString(s.table))
	}
	b.WriteString("</body></html>\n")
	return b.String()
}

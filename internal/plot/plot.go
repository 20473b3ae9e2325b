// Package plot renders the reproduction's figures as standalone SVG files:
// line charts for the characterisation curves (Figures 2 and 3) and grouped
// bar charts for the speedup figures (Figures 5-9). It is deliberately
// minimal — stdlib only, one axis per chart, a fixed categorical palette
// assigned in a validated order, thin marks, recessive grid, and a legend
// whenever more than one series is shown.
package plot

import (
	"fmt"
	"math"
	"strings"
)

// The categorical palette (light mode), in its fixed CVD-validated order.
// Hues are assigned to series by position and never cycled; charts with
// more series than slots must fold the tail into "other".
var seriesColors = []string{
	"#2a78d6", // blue
	"#1baf7a", // aqua
	"#eda100", // yellow
	"#008300", // green
	"#4a3aa7", // violet
	"#e34948", // red
	"#e87ba4", // magenta
	"#eb6834", // orange
}

// Surface and ink tokens.
const (
	surface       = "#fcfcfb"
	textPrimary   = "#0b0b0b"
	textSecondary = "#52514e"
	gridColor     = "#e7e6e2"
	axisColor     = "#b9b8b2"
)

// Series is one named line of (x, y) points.
type Series struct {
	Name string
	X, Y []float64
}

// LineChart describes a single-axis line chart.
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	// Width and Height default to 720x420.
	Width, Height int
	Series        []Series
	// LogX plots x on a log10 scale (Figure 3's offset axis).
	LogX bool
}

// BarGroup is one series of a grouped bar chart: one value per category.
type BarGroup struct {
	Name   string
	Values []float64
}

// BarChart describes a single-axis grouped bar chart.
type BarChart struct {
	Title      string
	YLabel     string
	Width      int
	Height     int
	Categories []string
	Groups     []BarGroup
}

const (
	defaultW   = 720
	defaultH   = 420
	marginL    = 64
	marginR    = 16
	marginTop  = 40
	marginBot  = 72
	legendRowH = 16
)

// niceTicks returns ~n round-valued ticks spanning [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if n < 2 {
		n = 2
	}
	if hi <= lo {
		hi = lo + 1
	}
	raw := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch norm := raw / mag; {
	case norm < 1.5:
		step = mag
	case norm < 3:
		step = 2 * mag
	case norm < 7:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	start := math.Floor(lo/step) * step
	var ticks []float64
	for v := start; v <= hi+step/2; v += step {
		if v >= lo-step/2 {
			ticks = append(ticks, v)
		}
	}
	return ticks
}

// formatTick renders a tick value compactly.
func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1_000_000:
		return fmt.Sprintf("%.3gM", v/1_000_000)
	case av >= 10_000:
		return fmt.Sprintf("%.3gk", v/1000)
	case av == math.Trunc(av):
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

type svgBuilder struct {
	strings.Builder
}

func (b *svgBuilder) elem(format string, args ...any) {
	fmt.Fprintf(b, format, args...)
	b.WriteString("\n")
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func header(b *svgBuilder, w, h int, title string) {
	b.elem(`<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" role="img" aria-label="%s">`, w, h, w, h, esc(title))
	b.elem(`<rect width="%d" height="%d" fill="%s"/>`, w, h, surface)
	b.elem(`<text x="%d" y="22" font-family="sans-serif" font-size="14" fill="%s">%s</text>`, marginL, textPrimary, esc(title))
}

// legend draws one row of swatch+name entries; callers position it with a
// transform. Charts with a single series skip it (the title names the
// series).
func legend(b *svgBuilder, names []string, w int) {
	if len(names) < 2 {
		return
	}
	x := marginL
	for i, name := range names {
		color := seriesColors[i%len(seriesColors)]
		b.elem(`<rect x="%d" y="-10" width="10" height="10" rx="2" fill="%s"/>`, x, color)
		b.elem(`<text x="%d" y="0" font-family="sans-serif" font-size="11" fill="%s">%s</text>`, x+14, textSecondary, esc(name))
		x += 14 + 8*len(name) + 18
		if x > w-marginR {
			break // clip overlong legends rather than overflow
		}
	}
}

// SVG renders the line chart.
func (c LineChart) SVG() string {
	w, h := c.Width, c.Height
	if w == 0 {
		w = defaultW
	}
	if h == 0 {
		h = defaultH
	}
	plotW := w - marginL - marginR
	plotH := h - marginTop - marginBot

	// Data extents. NaN points — failed experiment cells — are skipped
	// here and rendered as line gaps below.
	lo, hi := math.Inf(1), math.Inf(-1)
	xlo, xhi := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			if c.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			xlo, xhi = math.Min(xlo, x), math.Max(xhi, x)
			lo, hi = math.Min(lo, y), math.Max(hi, y)
		}
	}
	if math.IsInf(lo, 1) {
		xlo, xhi, lo, hi = 0, 1, 0, 1
	}
	if lo > 0 {
		lo = 0 // anchor magnitude axes at zero
	}
	yTicks := niceTicks(lo, hi, 5)
	hi = math.Max(hi, yTicks[len(yTicks)-1])

	sx := func(x float64) float64 {
		if c.LogX {
			x = math.Log10(math.Max(x, 1e-9))
		}
		if xhi == xlo {
			return float64(marginL)
		}
		return float64(marginL) + (x-xlo)/(xhi-xlo)*float64(plotW)
	}
	sy := func(y float64) float64 {
		return float64(marginTop) + (1-(y-lo)/(hi-lo))*float64(plotH)
	}

	var b svgBuilder
	header(&b, w, h, c.Title)

	// Grid + y ticks.
	for _, t := range yTicks {
		y := sy(t)
		b.elem(`<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s" stroke-width="1"/>`, marginL, y, w-marginR, y, gridColor)
		b.elem(`<text x="%d" y="%.1f" text-anchor="end" font-family="sans-serif" font-size="10" fill="%s">%s</text>`, marginL-6, y+3, textSecondary, formatTick(t))
	}
	// X ticks.
	for _, t := range niceTicks(xlo, xhi, 6) {
		xv := t
		label := formatTick(t)
		if c.LogX {
			label = formatTick(math.Pow(10, t))
		}
		x := float64(marginL)
		if xhi != xlo {
			x = float64(marginL) + (xv-xlo)/(xhi-xlo)*float64(plotW)
		}
		b.elem(`<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="%s" stroke-width="1"/>`, x, marginTop+plotH, x, marginTop+plotH+4, axisColor)
		b.elem(`<text x="%.1f" y="%d" text-anchor="middle" font-family="sans-serif" font-size="10" fill="%s">%s</text>`, x, marginTop+plotH+16, textSecondary, esc(label))
	}
	// Axes.
	b.elem(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="1"/>`, marginL, marginTop, marginL, marginTop+plotH, axisColor)
	b.elem(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="1"/>`, marginL, marginTop+plotH, w-marginR, marginTop+plotH, axisColor)

	// Series polylines (2px, thin marks). A NaN point breaks the line into
	// separate segments, so a failed cell reads as a gap rather than an
	// interpolated value.
	for i, s := range c.Series {
		color := seriesColors[i%len(seriesColors)]
		var pts []string
		flush := func() {
			if len(pts) > 0 {
				b.elem(`<polyline points="%s" fill="none" stroke="%s" stroke-width="2" stroke-linejoin="round"/>`, strings.Join(pts, " "), color)
				pts = pts[:0]
			}
		}
		for j := range s.X {
			if math.IsNaN(s.X[j]) || math.IsNaN(s.Y[j]) {
				flush()
				continue
			}
			if c.LogX && s.X[j] <= 0 {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", sx(s.X[j]), sy(s.Y[j])))
		}
		flush()
	}

	// Axis labels.
	if c.XLabel != "" {
		b.elem(`<text x="%d" y="%d" text-anchor="middle" font-family="sans-serif" font-size="11" fill="%s">%s</text>`, marginL+plotW/2, marginTop+plotH+34, textSecondary, esc(c.XLabel))
	}
	if c.YLabel != "" {
		b.elem(`<text x="14" y="%d" transform="rotate(-90 14 %d)" text-anchor="middle" font-family="sans-serif" font-size="11" fill="%s">%s</text>`, marginTop+plotH/2, marginTop+plotH/2, textSecondary, esc(c.YLabel))
	}
	// Legend row beneath the x-axis label.
	if len(c.Series) >= 2 {
		b.elem(`<g transform="translate(0 %d)">`, marginTop+plotH+54)
		names := make([]string, len(c.Series))
		for i, s := range c.Series {
			names[i] = s.Name
		}
		legend(&b, names, w)
		b.elem(`</g>`)
	}
	b.elem(`</svg>`)
	return b.String()
}

// SVG renders the grouped bar chart.
func (c BarChart) SVG() string {
	w, h := c.Width, c.Height
	if w == 0 {
		w = defaultW + 240 // wider: 12 benchmark categories
	}
	if h == 0 {
		h = defaultH
	}
	plotW := w - marginL - marginR
	plotH := h - marginTop - marginBot

	lo, hi := 0.0, math.Inf(-1)
	for _, g := range c.Groups {
		for _, v := range g.Values {
			if math.IsNaN(v) {
				continue // failed cell — drawn as an annotated gap below
			}
			hi = math.Max(hi, v)
			lo = math.Min(lo, v)
		}
	}
	if math.IsInf(hi, -1) {
		hi = 1
	}
	yTicks := niceTicks(lo, hi, 5)
	hi = math.Max(hi, yTicks[len(yTicks)-1])
	lo = math.Min(lo, yTicks[0])

	sy := func(y float64) float64 {
		return float64(marginTop) + (1-(y-lo)/(hi-lo))*float64(plotH)
	}

	var b svgBuilder
	header(&b, w, h, c.Title)
	for _, t := range yTicks {
		y := sy(t)
		b.elem(`<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s" stroke-width="1"/>`, marginL, y, w-marginR, y, gridColor)
		b.elem(`<text x="%d" y="%.1f" text-anchor="end" font-family="sans-serif" font-size="10" fill="%s">%s</text>`, marginL-6, y+3, textSecondary, formatTick(t))
	}
	b.elem(`<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="1"/>`, marginL, marginTop, marginL, marginTop+plotH, axisColor)

	ncat := len(c.Categories)
	ngrp := len(c.Groups)
	if ncat > 0 && ngrp > 0 {
		catW := float64(plotW) / float64(ncat)
		// 2px surface gaps between adjacent bars; bars fill ~70% of the slot.
		barW := math.Max(3, catW*0.7/float64(ngrp)-2)
		zeroY := sy(math.Max(0, lo))
		for ci, cat := range c.Categories {
			cx := float64(marginL) + (float64(ci)+0.5)*catW
			groupW := (barW + 2) * float64(ngrp)
			for gi, g := range c.Groups {
				if ci >= len(g.Values) {
					continue
				}
				v := g.Values[ci]
				x := cx - groupW/2 + float64(gi)*(barW+2) + 1
				if math.IsNaN(v) {
					// Failed cell: an ×-mark at the baseline instead of a
					// bar, so the gap is visibly deliberate.
					mx, my, mr := x+barW/2, zeroY-4, math.Min(3.5, barW/2)
					b.elem(`<path d="M %.1f %.1f L %.1f %.1f M %.1f %.1f L %.1f %.1f" stroke="%s" stroke-width="1.5" stroke-linecap="round"/>`,
						mx-mr, my-mr, mx+mr, my+mr, mx-mr, my+mr, mx+mr, my-mr, textSecondary)
					continue
				}
				yTop, yBot := sy(v), zeroY
				if v < 0 {
					yTop, yBot = zeroY, sy(v)
				}
				height := math.Max(yBot-yTop, 0.5)
				color := seriesColors[gi%len(seriesColors)]
				// Rounded data end (top), square baseline anchor.
				r := math.Min(3, barW/2)
				if v >= 0 {
					b.elem(`<path d="M %.1f %.1f L %.1f %.1f Q %.1f %.1f %.1f %.1f L %.1f %.1f Q %.1f %.1f %.1f %.1f L %.1f %.1f Z" fill="%s"/>`,
						x, yBot,
						x, yTop+r,
						x, yTop, x+r, yTop,
						x+barW-r, yTop,
						x+barW, yTop, x+barW, yTop+r,
						x+barW, yBot,
						color)
				} else {
					b.elem(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`, x, yTop, barW, height, color)
				}
			}
			// Rotated category label.
			b.elem(`<text x="%.1f" y="%d" transform="rotate(-35 %.1f %d)" text-anchor="end" font-family="sans-serif" font-size="9" fill="%s">%s</text>`,
				cx, marginTop+plotH+12, cx, marginTop+plotH+12, textSecondary, esc(cat))
		}
		// Baseline drawn above the bars so negative bars hang below it.
		b.elem(`<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="%s" stroke-width="1"/>`, marginL, zeroY, w-marginR, zeroY, axisColor)
	}

	if c.YLabel != "" {
		b.elem(`<text x="14" y="%d" transform="rotate(-90 14 %d)" text-anchor="middle" font-family="sans-serif" font-size="11" fill="%s">%s</text>`, marginTop+plotH/2, marginTop+plotH/2, textSecondary, esc(c.YLabel))
	}
	if ngrp >= 2 {
		b.elem(`<g transform="translate(0 %d)">`, marginTop+plotH+58)
		names := make([]string, ngrp)
		for i, g := range c.Groups {
			names[i] = g.Name
		}
		legend(&b, names, w)
		b.elem(`</g>`)
	}
	b.elem(`</svg>`)
	return b.String()
}

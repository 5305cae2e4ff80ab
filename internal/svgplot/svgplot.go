// Package svgplot renders experiment tables as self-contained SVG charts
// using only the standard library: line charts for numeric sweeps (the
// paper's load/x/frac_local figures) and grouped bar charts for
// categorical tables (the per-class figures). The output is deliberately
// plain — axes, ticks, legend, series in distinguishable colours — and is
// meant for quick inspection of reproduced figures, not publication.
package svgplot

import (
	"fmt"
	"math"
	"strings"
)

// Chart describes one rendering request.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []string

	X      []float64 // numeric x (line chart) — exactly one of X/Labels
	Labels []string  // categorical rows (grouped bars)
	Y      [][]float64
	Width  int // pixels; default 720
	Height int // pixels; default 420
}

// palette holds visually distinct series colours (colour-blind safe-ish).
var palette = []string{
	"#0072b2", "#d55e00", "#009e73", "#cc79a7",
	"#e69f00", "#56b4e9", "#f0e442", "#000000",
}

const (
	marginLeft   = 64
	marginRight  = 16
	marginTop    = 36
	marginBottom = 48
)

// Render produces the SVG document.
func Render(c Chart) (string, error) {
	body, w, h, err := renderBody(c)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`, w, h)
	b.WriteString("\n")
	b.WriteString(body)
	b.WriteString("</svg>\n")
	return b.String(), nil
}

// Compose stacks several charts vertically into one SVG document — the
// obs dashboard uses it to stack the slack, lateness and latency
// quantile bands. All panels share one document; each keeps its own
// axes and legend.
func Compose(charts ...Chart) (string, error) {
	if len(charts) == 0 {
		return "", fmt.Errorf("svgplot: nothing to compose")
	}
	bodies := make([]string, len(charts))
	width, height := 0, 0
	heights := make([]int, len(charts))
	for i, c := range charts {
		body, w, h, err := renderBody(c)
		if err != nil {
			return "", fmt.Errorf("svgplot: panel %d: %w", i, err)
		}
		bodies[i] = body
		if w > width {
			width = w
		}
		heights[i] = h
		height += h
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="12">`, width, height)
	b.WriteString("\n")
	y := 0
	for i, body := range bodies {
		fmt.Fprintf(&b, `<g transform="translate(0 %d)">`, y)
		b.WriteString("\n")
		b.WriteString(body)
		b.WriteString("</g>\n")
		y += heights[i]
	}
	b.WriteString("</svg>\n")
	return b.String(), nil
}

// renderBody draws the chart's content (background, axes, marks, legend)
// without the outer <svg> element and returns it with the resolved panel
// size, so Render and Compose can wrap it in a document each their way.
func renderBody(c Chart) (string, int, int, error) {
	if len(c.Y) == 0 || len(c.Series) == 0 {
		return "", 0, 0, fmt.Errorf("svgplot: empty chart")
	}
	for i, row := range c.Y {
		if len(row) != len(c.Series) {
			return "", 0, 0, fmt.Errorf("svgplot: row %d has %d cells for %d series",
				i, len(row), len(c.Series))
		}
	}
	numeric := c.X != nil
	if numeric && len(c.X) != len(c.Y) {
		return "", 0, 0, fmt.Errorf("svgplot: %d x values for %d rows", len(c.X), len(c.Y))
	}
	if !numeric && len(c.Labels) != len(c.Y) {
		return "", 0, 0, fmt.Errorf("svgplot: %d labels for %d rows", len(c.Labels), len(c.Y))
	}
	if c.Width <= 0 {
		c.Width = 720
	}
	if c.Height <= 0 {
		c.Height = 420
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, c.Width, c.Height)
	b.WriteString("\n")
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-weight="bold">%s</text>`,
		marginLeft, escape(c.Title))
	b.WriteString("\n")

	plotW := c.Width - marginLeft - marginRight
	plotH := c.Height - marginTop - marginBottom

	// Y range: 0 .. max (padded).
	maxY := 0.0
	for _, row := range c.Y {
		for _, v := range row {
			if v > maxY {
				maxY = v
			}
		}
	}
	if maxY <= 0 {
		maxY = 1
	}
	maxY *= 1.05

	yPix := func(v float64) float64 {
		return float64(marginTop) + float64(float64(plotH)*(1-v/maxY))
	}

	// Axes.
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		marginLeft, marginTop, marginLeft, marginTop+plotH)
	b.WriteString("\n")
	fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		marginLeft, marginTop+plotH, marginLeft+plotW, marginTop+plotH)
	b.WriteString("\n")

	// Y ticks (5).
	for i := 0; i <= 5; i++ {
		v := maxY * float64(i) / 5
		y := yPix(v)
		fmt.Fprintf(&b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#ddd"/>`,
			marginLeft, y, marginLeft+plotW, y)
		b.WriteString("\n")
		fmt.Fprintf(&b, `<text x="%d" y="%.1f" text-anchor="end">%.3g</text>`,
			marginLeft-6, y+4, v)
		b.WriteString("\n")
	}
	// Axis labels.
	fmt.Fprintf(&b, `<text x="%d" y="%d" text-anchor="middle">%s</text>`,
		marginLeft+plotW/2, c.Height-10, escape(c.XLabel))
	b.WriteString("\n")
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%d" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`,
			marginTop+plotH/2, marginTop+plotH/2, escape(c.YLabel))
		b.WriteString("\n")
	}

	if numeric {
		renderLines(&b, c, plotW, plotH, yPix)
	} else {
		renderBars(&b, c, plotW, plotH, yPix)
	}
	renderLegend(&b, c)
	return b.String(), c.Width, c.Height, nil
}

func renderLines(b *strings.Builder, c Chart, plotW, plotH int, yPix func(float64) float64) {
	minX, maxX := c.X[0], c.X[0]
	for _, x := range c.X {
		minX = math.Min(minX, x)
		maxX = math.Max(maxX, x)
	}
	span := maxX - minX
	if span == 0 {
		span = 1
	}
	xPix := func(x float64) float64 {
		return float64(marginLeft) + float64(plotW)*(x-minX)/span
	}
	// X ticks at the data points (up to 12).
	step := 1
	if len(c.X) > 12 {
		step = len(c.X) / 12
	}
	for i := 0; i < len(c.X); i += step {
		x := xPix(c.X[i])
		fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">%g</text>`,
			x, marginTop+plotH+16, c.X[i])
		b.WriteString("\n")
	}
	for s := range c.Series {
		color := palette[s%len(palette)]
		var pts []string
		for i := range c.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", xPix(c.X[i]), yPix(c.Y[i][s])))
		}
		fmt.Fprintf(b, `<polyline fill="none" stroke="%s" stroke-width="1.8" points="%s"/>`,
			color, strings.Join(pts, " "))
		b.WriteString("\n")
		for i := range c.X {
			fmt.Fprintf(b, `<circle cx="%.1f" cy="%.1f" r="2.6" fill="%s"/>`,
				xPix(c.X[i]), yPix(c.Y[i][s]), color)
			b.WriteString("\n")
		}
	}
}

func renderBars(b *strings.Builder, c Chart, plotW, plotH int, yPix func(float64) float64) {
	groups := len(c.Labels)
	ns := len(c.Series)
	groupW := float64(plotW) / float64(groups)
	barW := groupW * 0.8 / float64(ns)
	for g := 0; g < groups; g++ {
		gx := float64(marginLeft) + float64(groupW*float64(g))
		fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle">%s</text>`,
			gx+float64(groupW/2), marginTop+plotH+16, escape(c.Labels[g]))
		b.WriteString("\n")
		for s := 0; s < ns; s++ {
			v := c.Y[g][s]
			x := gx + float64(groupW*0.1) + float64(barW*float64(s))
			y := yPix(v)
			h := float64(marginTop+plotH) - y
			fmt.Fprintf(b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
				x, y, barW*0.92, h, palette[s%len(palette)])
			b.WriteString("\n")
		}
	}
}

func renderLegend(b *strings.Builder, c Chart) {
	x := marginLeft + 10
	y := marginTop + 8
	for s, name := range c.Series {
		color := palette[s%len(palette)]
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`,
			x, y-9, color)
		b.WriteString("\n")
		fmt.Fprintf(b, `<text x="%d" y="%d">%s</text>`, x+14, y, escape(name))
		b.WriteString("\n")
		y += 16
	}
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

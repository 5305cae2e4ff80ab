package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Export file names written by ExportDir.
const (
	SpansFile      = "spans.jsonl"
	EdgesFile      = "edges.jsonl"
	MetricsFile    = "metrics.prom"
	TimeSeriesFile = "timeseries.csv"
	DashboardFile  = "dashboard.svg"
	SummaryFile    = "summary.txt"
)

// ExportDir writes the full telemetry export into dir (created if
// missing): the span and edge logs as JSONL, the instrument catalog in
// Prometheus text exposition format, the sampled time series as CSV, the
// SVG dashboard, and the human-readable summary. The dashboard is
// skipped — not an error — when the run produced nothing to plot. It
// returns the paths written.
func (t *Telemetry) ExportDir(dir string) ([]string, error) {
	files := []exportFile{
		{SpansFile, t.WriteSpans},
		{EdgesFile, t.WriteEdges},
		{MetricsFile, t.WritePrometheus},
		{TimeSeriesFile, t.WriteCSV},
	}
	if svg, err := t.Dashboard(); err == nil {
		files = append(files, exportFile{DashboardFile, writeString(svg)})
	}
	files = append(files, exportFile{SummaryFile, writeString(t.Summary())})
	return exportFiles(dir, files)
}

// exportFile is one file of an export bundle and the function that
// renders it.
type exportFile struct {
	name  string
	write func(w io.Writer) error
}

// writeString renders a precomputed document.
func writeString(doc string) func(w io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, doc)
		return err
	}
}

// exportBufSize is the write buffer of every exported file: JSONL
// writers emit one short line per record, so unbuffered files would cost
// a system call per span.
const exportBufSize = 64 << 10

// exportFiles creates dir if missing and writes each file through a
// buffered writer, in order, stopping at the first failure. It returns
// the paths written so far.
func exportFiles(dir string, files []exportFile) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(files))
	for _, ef := range files {
		path := filepath.Join(dir, ef.name)
		if err := writeFile(path, ef.write); err != nil {
			return paths, fmt.Errorf("obs: export %s: %w", ef.name, err)
		}
		paths = append(paths, path)
	}
	return paths, nil
}

// writeFile creates path and renders it through a buffered writer,
// flushing and closing with their errors checked.
func writeFile(path string, render func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, exportBufSize)
	if err := render(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

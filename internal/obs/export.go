package obs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/par"
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
// buffered writer, the files side by side on the shared pool. It returns
// the paths of the files before the first failing one, in order, and
// that file's error. The files after the failing one that were written
// are removed again, so what is left on disk is what a serial loop
// stopping at the failure would have left, except that such a file from
// an earlier export is gone rather than kept.
func exportFiles(dir string, files []exportFile) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	paths := make([]string, len(files))
	errs := make([]error, len(files))
	par.Map(0, len(files), func(i int) error {
		paths[i] = filepath.Join(dir, files[i].name)
		errs[i] = WriteFile(paths[i], files[i].write)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			for j := i + 1; j < len(files); j++ {
				if errs[j] == nil {
					os.Remove(paths[j])
				}
			}
			return paths[:i], fmt.Errorf("obs: export %s: %w", files[i].name, err)
		}
	}
	return paths, nil
}

// WriteFile creates path and renders it through a buffered writer,
// flushing and closing with their errors checked.
func WriteFile(path string, render func(w io.Writer) error) error {
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

package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dataset"
	"repro/internal/geo"
)

// historyDays matches esharing-server's default -history-days.
const historyDays = 7

// requestDays of destinations are generated per run: more than any
// run sends, so the stream only wraps around if the server gets far
// faster.
const requestDays = 3

// requestConfig generates the destinations sent to the server: the
// same city model as the history, on the days after it, from a stream
// derived from the seed so that no seed replays the server's own
// history sample.
func requestConfig(seed uint64) dataset.Config {
	return dataset.Config{
		Seed:  seed ^ 0x9e3779b97f4a7c15,
		Start: time.Date(2017, time.May, 10+historyDays, 0, 0, 0, 0, time.UTC),
		Days:  requestDays,
	}
}

// historyConfig is the synthetic history written as the CSV of the
// restart-replay workload.
func historyConfig(seed uint64) dataset.Config {
	return dataset.Config{Seed: seed, Days: historyDays}
}

// requestDests returns the request destinations in the plane of the
// generator's own projection, which is the plane of esharing-server's
// synthetic history.
func requestDests(seed uint64) ([]geo.Point, error) {
	trips, err := dataset.Generate(requestConfig(seed))
	if err != nil {
		return nil, err
	}
	return dataset.EndPoints(trips), nil
}

// writeHistoryCSV writes the seed's history in the Mobike schema.
func writeHistoryCSV(seed uint64, path string) error {
	trips, err := dataset.Generate(historyConfig(seed))
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dataset.WriteCSV(f, trips); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// csvProjector returns the projection esharing-server applies to a
// trips CSV: centred on the data's own geohash bounding box.
func csvProjector(path string) (*geo.Projector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sum, err := dataset.ScanSummarize(f, dataset.ScanOptions{})
	if err != nil {
		return nil, err
	}
	center, err := sum.Center()
	if err != nil {
		return nil, err
	}
	return geo.NewProjector(center), nil
}

// csvRequestDests returns the request destinations in the plane of a
// server whose history is the CSV at path: each end geohash decoded
// and projected the way the server projects its history.
func csvRequestDests(seed uint64, path string) ([]geo.Point, error) {
	pr, err := csvProjector(path)
	if err != nil {
		return nil, err
	}
	trips, err := dataset.Generate(requestConfig(seed))
	if err != nil {
		return nil, err
	}
	out := make([]geo.Point, len(trips))
	for i, t := range trips {
		ll, _, _, err := geo.DecodeGeohash(t.EndGeohash)
		if err != nil {
			return nil, fmt.Errorf("trip %d: %w", t.OrderID, err)
		}
		out[i] = pr.ToPlane(ll)
	}
	return out, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/server"
)

// target is the server under load, reached over loopback HTTP through a
// pool capped at conns connections.
type target struct {
	base   string
	client *http.Client
	conns  int
}

func newTarget(base string, conns int) *target {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
	}
	return &target{base: base, client: &http.Client{Transport: tr, Timeout: 60 * time.Second}, conns: conns}
}

func (t *target) close() { t.client.CloseIdleConnections() }

// place posts one placement; header, when non-empty, tags the request
// for the traced run.
func (t *target) place(dest geo.Point, header string) (server.PlaceResponse, int, error) {
	body, err := json.Marshal(server.PlaceRequest{Dest: dest})
	if err != nil {
		return server.PlaceResponse{}, 0, err
	}
	req, err := http.NewRequest(http.MethodPost, t.base+"/v1/requests", bytes.NewReader(body))
	if err != nil {
		return server.PlaceResponse{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if header != "" {
		req.Header.Set(reqIDHeader, header)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return server.PlaceResponse{}, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return server.PlaceResponse{}, resp.StatusCode, err
	}
	var out server.PlaceResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &out); err != nil {
			return out, resp.StatusCode, fmt.Errorf("decode placement: %w", err)
		}
	}
	return out, resp.StatusCode, nil
}

// get fetches path and returns the body and status.
func (t *target) get(path string) ([]byte, int, error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

func (t *target) getOK(path string) ([]byte, error) {
	b, status, err := t.get(path)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, status)
	}
	return b, nil
}

func (t *target) stats() (server.StatsResponse, error) {
	var s server.StatsResponse
	b, err := t.getOK("/v1/stats")
	if err != nil {
		return s, err
	}
	return s, json.Unmarshal(b, &s)
}

func (t *target) stations() ([]geo.Point, error) {
	var s server.StationsResponse
	b, err := t.getOK("/v1/stations")
	if err != nil {
		return nil, err
	}
	return s.Stations, json.Unmarshal(b, &s)
}

// scrape is one /metrics reading: every sample keyed by its name and
// labels exactly as rendered, plus the body size.
type scrape struct {
	samples map[string]float64
	bytes   int
}

func (t *target) metrics() (scrape, error) {
	b, err := t.getOK("/metrics")
	if err != nil {
		return scrape{}, err
	}
	return parseMetrics(b)
}

func parseMetrics(b []byte) (scrape, error) {
	s := scrape{samples: map[string]float64{}, bytes: len(b)}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return s, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return s, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s.samples[line[:i]] = v
	}
	return s, sc.Err()
}

// get returns a sample that must be present.
func (s scrape) get(key string) (float64, error) {
	v, ok := s.samples[key]
	if !ok {
		return 0, fmt.Errorf("/metrics has no %s", key)
	}
	return v, nil
}

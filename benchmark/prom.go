package main

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// scrape is one reading of a Prometheus text exposition: series name,
// labels included (`name{a="b"}`), to value.
type scrape map[string]float64

// parseExposition reads the text exposition format, skipping comments
// and anything that is not `series value`.
func parseExposition(text string) scrape {
	out := scrape{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out
}

// fetchMetrics scrapes base/metrics.
func fetchMetrics(hc *http.Client, base string) (scrape, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, resp.StatusCode)
	}
	return parseExposition(string(raw)), nil
}

// sum adds up every series of the family name whose label set holds all
// of the given `key="value"` pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	var total float64
series:
	for series, v := range s {
		fam, rest, _ := strings.Cut(series, "{")
		if fam != name {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue series
			}
		}
		total += v
	}
	return total
}

// delta is after − before for the same selection; counters that did not
// exist before count from zero.
func delta(before, after scrape, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}

// Command linkbench is a closed-loop load generator for adaptivelinkd:
// it creates a benchmark index from generated test data, fires link
// requests from concurrent clients, and reports throughput and latency
// percentiles on stdout. A non-zero exit means at least one request
// failed. Measurements that back claims come from the repository
// benchmark (BENCHMARK.json, benchmark/), not from this tool.
//
// Usage:
//
//	linkbench -addr http://127.0.0.1:8080 -n 1000 -c 64 -batch 4 \
//	          -strategy adaptive
package main

import (
	"os"

	"adaptivelink/internal/cli"
)

func main() {
	os.Exit(cli.RunLinkBench(os.Args[1:], os.Stdout, os.Stderr))
}

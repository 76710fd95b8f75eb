package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the slice of BENCHMARK.json the spread report reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spreadReport runs each workload o.repeat times, seeds o.seed onwards, as
// separate processes exactly as a single run is made, and prints per metric
// the median, the quartiles (Python's statistics.quantiles, n=4) and
// (q3−q1)/median against the metric's bound in BENCHMARK.json, plus the
// generator's validity figures.
func spreadReport(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if raw, err := os.ReadFile("BENCHMARK.json"); err == nil {
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	ws := workloadNames
	if o.workload != "" {
		ws = strings.Split(o.workload, ",")
	}
	for _, w := range ws {
		vals := map[string][]float64{}
		units := map[string]string{}
		var order []string
		for r := 0; r < o.repeat; r++ {
			seed := o.seed + int64(r)
			args := []string{"--workload", w, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace),
				"--trackd", o.trackd, "--out", o.out}
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout = &out
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w\n%s", w, seed, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: last line: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: incorrect run", w, seed)
			}
			for name, m := range res.Metrics {
				if _, ok := units[name]; !ok {
					order = append(order, name)
				}
				vals[name] = append(vals[name], m.Value)
				units[name] = m.Unit
			}
			// Ungated metrics and the generator's validity figures are
			// plain "name value unit" lines.
			sc := bufio.NewScanner(strings.NewReader(out.String()))
			for sc.Scan() {
				f := strings.Fields(sc.Text())
				if len(f) < 3 || !(ungated[f[0]] || strings.HasPrefix(f[0], "gen.")) {
					continue
				}
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					if _, ok := units[f[0]]; !ok {
						order = append(order, f[0])
					}
					vals[f[0]] = append(vals[f[0]], v)
					units[f[0]] = f[2]
				}
			}
			fmt.Fprintf(os.Stderr, "spread: %s seed %d done\n", w, seed)
		}
		// BENCHMARK.json's order first, then the generator's figures.
		var sorted []string
		for _, m := range bf.EndToEnd {
			if _, ok := vals[m.Name]; ok {
				sorted = append(sorted, m.Name)
			}
		}
		for _, name := range order {
			if _, ok := bounds[name]; !ok {
				sorted = append(sorted, name)
			}
		}
		fmt.Printf("\n%s: %d runs, seeds %d..%d, %ds each\n", w, o.repeat, o.seed, o.seed+int64(o.repeat)-1, o.seconds)
		fmt.Printf("%-22s %-10s %14s %14s %14s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		for _, name := range sorted {
			q1, med, q3 := quartiles(vals[name])
			spread := (q3 - q1) / med
			b := "-"
			if bd, ok := bounds[name]; ok {
				b = strconv.FormatFloat(bd, 'g', -1, 64)
				if name != "setup_s" && spread >= bd/3 {
					b += " !"
				}
			}
			fmt.Printf("%-22s %-10s %14.6f %14.6f %14.6f %8.4f %6s\n", name, units[name], med, q1, q3, spread, b)
		}
	}
	return nil
}

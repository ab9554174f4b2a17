package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// quartiles returns the first quartile, median, and third quartile of v
// the way Python's statistics.quantiles(v, n=4) computes them (the
// "exclusive" method), so figures match the acceptance computation.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// steadiness runs the workload n times on seed and n times on seed+1, each
// run in its own process, and prints every end-to-end metric's median,
// quartiles, and spread (interquartile distance over the median) next to
// its bound, plus how far the second seed's median moved from the first's.
func steadiness(wl string, seed int64, secs float64, n int) error {
	if !knownWorkload(wl) {
		return fmt.Errorf("unknown workload %q", wl)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var sets [2]map[string][]float64
	var shares [2][]string
	for k := range sets {
		sets[k] = map[string][]float64{}
		sd := seed + int64(k)
		for i := 0; i < n; i++ {
			cmd := exec.Command(exe, "--workload", wl, "--seed", strconv.FormatInt(sd, 10),
				"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("seed %d run %d: %w", sd, i+1, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct   bool                  `json:"correct"`
				Attempted int                   `json:"attempted"`
				Failed    int                   `json:"failed"`
				Metrics   map[string]metricJSON `json:"metrics"`
			}
			if err := json.NewDecoder(bytes.NewReader([]byte(lines[len(lines)-1]))).Decode(&res); err != nil {
				return fmt.Errorf("seed %d run %d: %w", sd, i+1, err)
			}
			if !res.Correct {
				return fmt.Errorf("seed %d run %d: answers disagree with the oracle", sd, i+1)
			}
			shares[k] = append(shares[k], fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for name, mv := range res.Metrics {
				sets[k][name] = append(sets[k][name], mv.Value)
			}
			fmt.Fprintf(os.Stderr, "seed %d run %d done\n", sd, i+1)
		}
	}
	fmt.Printf("workload %s, %d runs on seed %d and %d runs on seed %d, %gs each\n", wl, n, seed, n, seed+1, secs)
	fmt.Printf("%-22s %-5s %12s %12s %12s %8s %6s %7s %8s\n", "metric", "seed", "q1", "median", "q3", "spread", "bound", "steady", "moved")
	for _, d := range endToEnd {
		var med0 float64
		for k := range sets {
			q1, q2, q3 := quartiles(sets[k][d.Name])
			spread := ratio(q3-q1, q2)
			steady := "yes"
			if spread > d.Bound/3 {
				steady = "NO"
			}
			moved := ""
			if k == 0 {
				med0 = q2
			} else {
				moved = fmt.Sprintf("%+.3f", ratio(q2-med0, med0))
			}
			fmt.Printf("%-22s %-5d %12.6g %12.6g %12.6g %8.4f %6.2f %7s %8s\n",
				d.Name, seed+int64(k), q1, q2, q3, spread, d.Bound, steady, moved)
		}
	}
	fmt.Printf("failed/attempted per run: seed %d %v; seed %d %v\n", seed, shares[0], seed+1, shares[1])
	return nil
}

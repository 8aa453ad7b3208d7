package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// report is the JSON line one run ends with.
type report struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runAll runs every workload untraced and then traced, each in its own
// process (peak RSS is per process), and prints the end-to-end metrics,
// the tracing overhead, and whether both processes of a workload agree on
// the digest. It returns the exit code.
func runAll(seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	var rows []string
	for _, w := range workloads {
		var reps [2]report
		var digests [2]string
		for tr := 0; tr < 2; tr++ {
			cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(tr))
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			err := cmd.Run()
			os.Stdout.Write(out.Bytes())
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if err == nil {
				err = json.Unmarshal([]byte(lines[len(lines)-1]), &reps[tr])
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s --trace %d: %v\n", w.name, tr, err)
				return 1
			}
			for _, l := range lines {
				if d, ok := strings.CutPrefix(l, "digest: "); ok {
					digests[tr] = d
				}
			}
		}
		plain, traced := reps[0], reps[1]
		ok := plain.Correct && traced.Correct && digests[0] == digests[1]
		if !ok {
			code = 1
		}
		rows = append(rows, fmt.Sprintf("%-20s %8.3f s %10.1f s/s %8.1f MB %+9.3f s %+10.1f s/s  %-5v %d/%d",
			w.name, plain.Metrics["setup_s"].Value, plain.Metrics["sim_s_per_s"].Value,
			plain.Metrics["peak_rss_mb"].Value, traced.Metrics["overhead.setup_s"].Value,
			traced.Metrics["overhead.sim_s_per_s"].Value, ok,
			plain.Failed+traced.Failed, plain.Attempted+traced.Attempted))
	}
	fmt.Printf("\nseed %d, %g s timed per run; overhead is traced minus untraced; ok needs both runs correct and equal digests\n",
		seed, seconds)
	fmt.Printf("%-20s %10s %14s %11s %11s %14s  %-5s %s\n", "workload", "setup_s", "sim_s_per_s",
		"peak_rss_mb", "ovh setup", "ovh sim_s/s", "ok", "failed/attempted")
	for _, r := range rows {
		fmt.Println(r)
	}
	return code
}

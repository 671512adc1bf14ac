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

// runAll runs every workload in its own child process, so each peak RSS
// belongs to one workload, then prints the metrics side by side. It returns
// the exit code: non-zero if any workload failed a check or did not finish.
func runAll(seed int64, seconds float64, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	code := 0
	results := make([]result, len(workloads))
	values := make([]map[string]string, len(workloads)) // printed rows, all metrics
	var order []string
	seen := map[string]bool{}
	for i, w := range workloads {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace), "--out", out)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		for _, l := range lines[:len(lines)-1] {
			if strings.HasPrefix(l, "workload ") || strings.HasPrefix(l, "CHECK FAILED") {
				fmt.Println(l)
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &results[i]); err != nil || runErr != nil || !results[i].Correct {
			fmt.Printf("%s: FAILED (exit: %v)\n", w.name, runErr)
			code = 1
		}
		// The table rows follow the children's own order, taken from
		// their printed tables.
		values[i] = map[string]string{}
		at := 0 // where the next new row goes: after the row printed before it
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) != 3 || !strings.HasPrefix(l, "    ") {
				continue
			}
			values[i][f[0]] = f[1]
			if !seen[f[0]] {
				seen[f[0]] = true
				order = append(order[:at], append([]string{f[0] + " " + f[2]}, order[at:]...)...)
			}
			for at < len(order) && !strings.HasPrefix(order[at], f[0]+" ") {
				at++
			}
			at++
		}
	}
	fmt.Printf("\n%-30s %-7s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %16s", w.name)
	}
	fmt.Println()
	for _, row := range order {
		name, unit, _ := strings.Cut(row, " ")
		fmt.Printf("%-30s %-7s", name, unit)
		for i := range workloads {
			if v, ok := values[i][name]; ok {
				fmt.Printf(" %16s", v)
			} else {
				fmt.Printf(" %16s", "-")
			}
		}
		fmt.Println()
	}
	for i, w := range workloads {
		fmt.Printf("%s: attempted %d failed %d correct %v\n", w.name, results[i].Attempted, results[i].Failed, results[i].Correct)
	}
	return code
}

#!/bin/sh
# bench_kernel.sh — run the table benchmarks and record the simulation
# kernel's trajectory in BENCH_kernel.json: per-benchmark ns/op, the
# idle-skip speedup on the low-utilization configs (the skip/noskip
# variant pairs of BenchmarkTableLowUtil), and the saturated-load
# throughput of the BenchmarkHotPath pair. These are absolute numbers for
# the record, not a gate: the CI perf gate is the same-machine A/B of
# perfbench/compare.py --ab (see perfbench/README.md).
#
#   ./scripts/bench_kernel.sh [output.json] [trajectory.jsonl]
#
# Besides the full snapshot, one dated line summarising the run is
# appended to the trajectory file (default BENCH_trajectory.jsonl) — the
# long-term wall-clock record CI uploads on every run.
#
# BENCHTIME overrides the per-benchmark iteration budget (default 1x,
# the CI smoke setting; use e.g. 5x for stabler local numbers).
set -e

out=${1:-BENCH_kernel.json}
traj=${2:-BENCH_trajectory.jsonl}
benchtime=${BENCHTIME:-1x}

go test -run '^$' -bench 'Table|HotPath' -benchtime "$benchtime" . | tee /tmp/bench_table.txt

awk -v benchtime="$benchtime" '
/^Benchmark(Table|HotPath)/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	ns = $3
	cps = ""
	for (i = 4; i <= NF; i++) if ($i == "cycles/s") cps = $(i - 1)
	n++
	names[n] = name
	nsop[n] = ns
	cycles[n] = cps
	if (name ~ /^BenchmarkTableLowUtil\//) {
		cfg = name
		sub(/^BenchmarkTableLowUtil\//, "", cfg)
		mode = cfg
		sub(/\/[^\/]*$/, "", cfg)
		sub(/^.*\//, "", mode)
		lowutil[cfg "/" mode] = ns
		if (!(cfg in seen)) { seen[cfg] = ++ncfg; cfgs[ncfg] = cfg }
	}
	if (name ~ /^BenchmarkHotPath\//) {
		sat = name
		sub(/^BenchmarkHotPath\//, "", sat)
		nsat++
		sats[nsat] = sat
		satcps[sat] = cps
		satns[sat] = ns
	}
}
END {
	printf "{\n  \"benchtime\": \"%s\",\n  \"benches\": [\n", benchtime
	for (i = 1; i <= n; i++) {
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s", names[i], nsop[i]
		if (cycles[i] != "") printf ", \"cycles_per_s\": %s", cycles[i]
		printf "}%s\n", (i < n) ? "," : ""
	}
	printf "  ],\n  \"saturated\": [\n"
	for (i = 1; i <= nsat; i++) {
		s = sats[i]
		printf "    {\"name\": \"%s\", \"ns_per_op\": %s, \"cycles_per_s\": %s}%s\n", \
			s, satns[s], satcps[s], (i < nsat) ? "," : ""
	}
	printf "  ],\n  \"idle_skip_speedup\": {\n"
	for (i = 1; i <= ncfg; i++) {
		c = cfgs[i]
		s = lowutil[c "/skip"]; ns2 = lowutil[c "/noskip"]
		if (s > 0 && ns2 > 0)
			printf "    \"%s\": %.2f%s\n", c, ns2 / s, (i < ncfg) ? "," : ""
	}
	printf "  }\n}\n"
}' /tmp/bench_table.txt > "$out"

echo "wrote $out:"
cat "$out"

# Append one dated summary line to the trajectory: the saturated
# throughputs plus the idle-skip speedups, compact enough to diff and
# plot across months of runs.
date -u +%Y-%m-%d | awk -v benchtime="$benchtime" '
{ day = $0 }
END {
	while ((getline line < "/tmp/bench_table.txt") > 0) {
		nf = split(line, f, " ")
		if (f[1] !~ /^BenchmarkHotPath\//) continue
		name = f[1]
		sub(/-[0-9]+$/, "", name)
		sub(/^BenchmarkHotPath\//, "", name)
		for (i = 4; i <= nf; i++) if (f[i] == "cycles/s") cps = f[i - 1]
		nsat++
		parts = parts sprintf("%s\"%s\": %s", (nsat > 1) ? ", " : "", name, cps)
	}
	printf "{\"date\": \"%s\", \"benchtime\": \"%s\", \"saturated_cycles_per_s\": {%s}}\n", \
		day, benchtime, parts
}' >> "$traj"

echo "appended to $traj:"
tail -1 "$traj"

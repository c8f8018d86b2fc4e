# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test bench report examples cover loc artifacts

all: build test

build:
	go build ./...

test:
	go vet ./...
	go test ./...

bench:
	go test -bench=. -benchmem ./...

report:
	go run ./cmd/report

examples:
	@for d in examples/*/; do echo "== $$d"; go run ./$$d; echo; done

cover:
	go test -cover ./internal/... .

# loc prints non-test and test Go lines per package directory and the
# total outside benchmark/ — the table a simplicity PR reports.
loc:
	@find . -name '*.go' | sed 's|^\./||' | xargs wc -l | awk '$$2 == "total" { next } \
		{ d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; k = ($$2 ~ /_test\.go$$/); n[d, k] += $$1; dirs[d] = 1; \
		  if (d !~ /^benchmark/) tot[k] += $$1 } \
		END { for (d in dirs) printf "%-28s %7d %7d\n", d, n[d, 0], n[d, 1] | "sort"; close("sort"); \
		      printf "%-28s %7d %7d\n", "total outside benchmark/", tot[0], tot[1] }'

# artifacts writes every deterministic CLI artifact of the current tree
# into OUT — stdout in <name>.out, stderr (plus a nonzero exit status)
# in <name>.err, exported traces / metrics / series beside them — so a
# change that claims "byte-identical" proves it with one command per
# tree, each run with that tree's own Makefile:
#
#     make artifacts OUT=/tmp/change
#     make -C <parent checkout> artifacts OUT=/tmp/parent
#     diff -r /tmp/parent /tmp/change
#
# Everything is a pure function of the flags below. The binaries are
# built outside OUT (they differ between trees by construction) and the
# runs execute inside it, so file names in the output are relative.
#
# Each example earns its artifact with a run no verb prints:
#   quickstart - the smallest whole program against the mechanism, the
#                one README sends a new reader to;
#   failover   - the detector-driven crash failover under a bumped epoch,
#                then a traced planned migration with its phase timeline.
artifacts:
	@test -n "$(OUT)" || { echo "usage: make artifacts OUT=<dir>" >&2; exit 2; }
	@set -e; mkdir -p "$(OUT)"; bin=$$(mktemp -d); trap 'rm -rf "$$bin"' EXIT; \
	for c in dvesim report; do go build -o "$$bin/$$c" ./cmd/$$c; done; \
	for d in examples/*/; do go build -o "$$bin/example-$$(basename $$d)" ./$$d; done; \
	cd "$(OUT)"; \
	run() { n=$$1; shift; echo "artifacts: $$n"; "$$@" >"$$n.out" 2>"$$n.err" || echo "exit status $$?" >>"$$n.err"; }; \
	run migbench "$$bin/dvesim" migbench -conns 16,64 -repeats 2 -seed 1 -workers 1 -trace-out migbench.trace.json -metrics-out migbench.metrics; \
	run migbench-race "$$bin/dvesim" migbench -strategy-race -workers 2; \
	for s in postcopy hybrid; do \
		run migbench-$$s "$$bin/dvesim" migbench -strategy $$s -conns 16,128 -seed 3 -workers 1 -phase-table -attr-table; \
	done; \
	run soak "$$bin/dvesim" soak -requests 80 -seeds 1,2 -workers 1 -metrics-out soak.metrics -series-out soak.series.json; \
	run soak-causes "$$bin/dvesim" soak -requests 80 -seeds 1,2 -workers 2 -causes -series-out soak-causes.series.csv; \
	for s in precopy postcopy hybrid; do \
		run soak-$$s "$$bin/dvesim" soak -requests 80 -seeds 1 -workers 2 -strategy $$s -cancels 0.1; \
	done; \
	run dvesim-lb "$$bin/dvesim" -lb -fast -duration 120 -trace-out dvesim-lb.trace.json -metrics-out dvesim-lb.metrics -series-out dvesim-lb.series.json; \
	run dvesim-hybrid "$$bin/dvesim" -lb -fast -duration 120 -strategy hybrid -neighbors; \
	run oabench "$$bin/dvesim" oabench; \
	run report "$$bin/report"; \
	run lbcluster "$$bin/dvesim" lbcluster; \
	for e in "$$bin"/example-*; do run $$(basename $$e) $$e; done

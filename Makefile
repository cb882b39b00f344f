.PHONY: all build test check bench bench-e2e clean

all: build

build:
	dune build

test:
	dune runtest

# Tier-1 verification plus end-to-end smokes:
# - one traced `ddtbench` corpus leg: every corpus driver at the default
#   config, then with each optional layer changed (merging off, -j 2 —
#   the harness's "dist" leg is a second -j 2 run — checkpointing, a
#   warm solver store), each bug set checked against the recorded
#   oracle; the last line must read "correct":true with no failed
#   session;
# - serve: a serve/submit round trip over a Unix socket streams back a
#   schema report whose sorted bug keys equal a sequential run's;
# - durability: on pro100 and on pro1000 (whose open merge tokens must
#   come back from the checkpoint), a checkpointing run is SIGKILL'd as
#   soon as its first checkpoint is on disk and must die by that signal
#   (status 137, so a run that finished first fails the smoke); `ddt_cli
#   resume` then reproduces the uninterrupted report byte for byte. A
#   second run against the persistent store hits it and reports the
#   same; checkpointing combined with -j 2 is refused;
# - the static pre-analysis: zero findings on two known-clean drivers
#   (rtl8029's buggy variant legitimately fires the interprocedural race
#   rule, so its smoke is scoped to the syntactic families) and under
#   every rule on every fixed variant;
# - a warning-clean doc build.
check: build test
	@set -e; last=$$(python3 ddtbench/run.py --workload corpus \
	  --seconds 3 --trace 1 | tail -n 1); \
	echo "$$last" | grep -q '"correct":true'; \
	echo "$$last" | grep -q '"failed":0[,}]'; \
	echo "e2e leg: corpus and every layer-off leg match the oracle"
	@set -e; dir=$$(mktemp -d); cli=./_build/default/bin/ddt_cli.exe; \
	$$cli test rtl8029 --json-out $$dir/seq.json >/dev/null || [ $$? -eq 2 ]; \
	$$cli serve --socket $$dir/ddt.sock --max-jobs 1 >/dev/null 2>&1 & \
	pid=$$!; \
	for i in $$(seq 1 100); do test -S $$dir/ddt.sock && break; \
	  sleep 0.05; done; \
	$$cli submit rtl8029 --socket $$dir/ddt.sock --workers 2 \
	  > $$dir/served.out; \
	wait $$pid || true; \
	grep -q '"serve":"done"' $$dir/served.out; \
	grep -q '"schema"' $$dir/served.out; \
	grep -o '"key":"[^"]*"' $$dir/seq.json | sort > $$dir/seq.keys; \
	grep -o '"key":"[^"]*"' $$dir/served.out | sort > $$dir/served.keys; \
	test -s $$dir/seq.keys; \
	cmp $$dir/seq.keys $$dir/served.keys; \
	echo "serve smoke: served report's bug keys identical to a sequential run"; \
	rm -rf $$dir
	@set -e; dir=$$(mktemp -d); cli=./_build/default/bin/ddt_cli.exe; \
	for d in pro100 pro1000; do \
	  $$cli test $$d --json-out $$dir/$$d.oracle.json >/dev/null \
	    || [ $$? -eq 2 ]; \
	  $$cli test $$d --checkpoint-every 1000 \
	    --checkpoint $$dir/$$d.ckpt >/dev/null 2>&1 & pid=$$!; \
	  for i in $$(seq 1 1000); do test -f $$dir/$$d.ckpt && break; \
	    sleep 0.01; done; \
	  kill -9 $$pid 2>/dev/null || true; \
	  rc=0; wait $$pid 2>/dev/null || rc=$$?; \
	  if [ $$rc -ne 137 ]; then \
	    echo "kill-resume smoke: $$d not killed mid-run (status $$rc)"; \
	    exit 1; fi; \
	  test -f $$dir/$$d.ckpt; \
	  $$cli resume $$dir/$$d.ckpt --json-out $$dir/$$d.resumed.json \
	    >/dev/null || [ $$? -eq 2 ]; \
	  cmp $$dir/$$d.oracle.json $$dir/$$d.resumed.json; \
	  echo "kill-resume smoke: $$d killed mid-run, resumed report byte-identical"; \
	done; \
	$$cli test rtl8029 --store-dir $$dir/store \
	  --json-out $$dir/cold.json >/dev/null || [ $$? -eq 2 ]; \
	$$cli test rtl8029 --store-dir $$dir/store \
	  --json-out $$dir/warm.json >$$dir/warm.out || [ $$? -eq 2 ]; \
	grep -q "solver store:" $$dir/warm.out; \
	cmp $$dir/cold.json $$dir/warm.json; \
	echo "warm-start smoke: persistent store hit, identical report"; \
	if $$cli test rtl8029 -j 2 --checkpoint-every 1000 \
	  --checkpoint $$dir/r.ckpt >/dev/null 2>$$dir/refused.err; then \
	  exit 1; else [ $$? -eq 1 ]; fi; \
	grep -q "checkpoint-every" $$dir/refused.err; \
	test ! -e $$dir/r.ckpt; \
	echo "checkpoint refusal smoke: -j 2 refused"; \
	rm -rf $$dir
	dune exec bin/ddt_cli.exe -- analyze rtl8029 --expect-clean \
	  --rules unreachable-code,stack-imbalance,const-arg-contract > /dev/null
	dune exec bin/ddt_cli.exe -- analyze pcnet --expect-clean > /dev/null
	for d in pro1000 pro100 ac97 audiopci pcnet rtl8029 deeploop; do \
	  dune exec bin/ddt_cli.exe -- analyze $$d --fixed --expect-clean \
	    > /dev/null || exit 1; \
	done
	dune build @doc

bench:
	dune exec bench/main.exe

# The repo benchmark (BENCHMARK.json): the corpus, small and serve
# workloads, untraced, one JSON result line each.
bench-e2e:
	for w in corpus small serve; do \
	  python3 ddtbench/run.py --workload $$w --trace 0 || exit 1; \
	done

clean:
	dune clean

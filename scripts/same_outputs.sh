#!/usr/bin/env bash
# Check that this tree writes the same output files as commit REF, byte for byte.
#
#   scripts/same_outputs.sh REF
#
# REF's files are exported into a temporary directory. Both trees run the
# seed-0 CLI calls of the three benchmark workloads (perfbench/run.py), the
# verify_n4 call with 2 workers too (verify_n4_w2, whose gain lines run on the
# worker pool), the ep3_n4 call with 1 and with 2 workers, an EP3 search
# over an asymmetric coupling window (which solves every probe and every
# candidate, without the coupling mirror), the ep3_n4 search over the window
# (-0.981, 0.999), whose (3,4,7) and (8,11,12) records pair, one N=6 gain
# sweep through many EP2s, one coarse N=6 coupling sweep with gain (40
# points on (-0.99, 0.99) at gamma_tilde = 0.3), where level matches are
# least clear-cut and most conjugate pairs form or split between two points,
# four `spectrum` calls, the gain-free crossing classification at N=4 (which
# refines every sign change of a pair's gap), one N=6 `oracle` table of the
# free-fermion states (its CSV written by column types, as the spectrum's and
# the crossings'), one `find-ep --pair` search
# (which keeps the sweep's EP2 records of one pair), an N=4 gain sweep at a high
# indicator_floor (0.05), where one pair's real end has no well-defined index,
# so its EP2 is written as a "no well-defined index" skipped entry, and two
# calls that reach the defect test: an N=2 gain sweep whose grid point at
# gamma_tilde = 1 is an exact EP, solved again at a nudged value (exit 0), and
# a `spectrum` call at the exact EP of decoupled spins (exit 2).
#
# Where a commit changed outputs on purpose, CHANGES.md says which files
# differ against it, and by how much.
# Every output file, standard output and exit status is compared with cmp
# (standard error is not, as it may name paths). For two EP record JSON files
# that differ, one more line says whether the record count, levels, indices
# and skipped entries match, with the largest location shift and the largest
# bracket_width in this tree, and whether the files are the same up to level
# ids: the same records as (location, sorted indices, residual, bracket_width)
# and the same skipped entries without the levels they name, each as a
# multiset. A last line gives the size of both trees'
# package, `cat src/pshchain/*.py | wc -l`. Exits 1 on any difference, 0 when
# all are identical. BLAS runs on one thread.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 64
fi
ref=$1
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/same_outputs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref"
git -C "$root" archive "$ref" | tar -x -C "$work/ref"

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

# name, then the CLI arguments without --output
ep3="find-ep --order 3 --n 4 --j-start -0.99 --j-stop 0.99 --g-start 0.35 --g-stop 0.45"
calls=(
    "verify_n4|verify --n 4 --points 801 --gammas 0.05,0.21,0.40125,0.48375 --workers 1"
    "verify_n4_w2|verify --n 4 --points 801 --gammas 0.05,0.21,0.40125,0.48375 --workers 2"
    "ep3_n4_w1|$ep3 --points 67 --workers 1"
    "ep3_n4_w2|$ep3 --points 67 --workers 2"
    "ep3_n4_asym|find-ep --order 3 --n 4 --j-start -0.9 --j-stop -0.6 --g-start 0.35 --g-stop 0.45 --points 11"
    "ep3_n4_moved|find-ep --order 3 --n 4 --j-start -0.981 --j-stop 0.999 --g-start 0.35 --g-stop 0.45 --points 67"
    "sweep_n8_h|sweep --n 8 --axis jt --fixed 0 --start -0.99 --stop 0.99 --points 40 --workers 1"
    "sweep_n6_gt|sweep --n 6 --axis gt --fixed 0.3 --start 0 --stop 0.5 --points 301"
    "sweep_n6_jt|sweep --n 6 --axis jt --fixed 0.3 --start -0.99 --stop 0.99 --points 40"
    "spectrum_n4|spectrum --n 4 --jt 0.5 --gt 0.21"
    "spectrum_n4_profile|spectrum --n 4 --jt 0.5 --profile 0.3,-0.1,0.1,-0.3"
    "spectrum_n6_degenerate|spectrum --n 6 --jt 0 --gt 0 --format json"
    "spectrum_n6|spectrum --n 6 --jt -0.84184 --gt 0.3"
    "crossings_n4|crossings --n 4 --points 801"
    "oracle_n6|oracle --n 6 --j 0.6 --delta 0.8"
    "ep2_pair|find-ep --order 2 --n 4 --axis gt --fixed -0.95 --start 0 --stop 0.004 --points 101 --pair 0 1"
    "ep2_floor|sweep --n 4 --axis gt --fixed 0.3 --start 0 --stop 0.5 --points 101 --tol indicator_floor=0.05"
    "ep_nudge_n2|sweep --n 2 --axis gt --fixed 0 --start 0 --stop 2 --points 5"
    "spectrum_n4_ep|spectrum --n 4 --jt 0 --gt 1"
)

run_tree() {  # tree, output directory
    local tree=$1 out=$2 entry name args code
    mkdir -p "$out"
    for entry in "${calls[@]}"; do
        name=${entry%%|*}
        args=${entry#*|}
        code=0
        # shellcheck disable=SC2086  # the arguments are split on purpose
        PYTHONPATH="$tree/src" python3 -m pshchain.cli $args --output "$out/$name.out" \
            >"$out/$name.stdout" 2>"$out/$name.stderr" || code=$?
        echo "$code" >"$out/$name.exit"
    done
}

records_summary() {  # reference file, this tree's file
    # one line on two differing EP record JSON files, nothing on other files
    python3 - "$1" "$2" <<'PY'
import json
import sys

try:
    old, new = (json.load(open(path)) for path in sys.argv[1:])
except ValueError:
    sys.exit()
if not all(isinstance(d, dict) and "records" in d for d in (old, new)):
    sys.exit()
ro, rn = old["records"], new["records"]


def same(value):
    return "same" if value(old) == value(new) else "differ"


def up_to_ids(d):
    # the records and skipped entries as multisets, without their level ids
    return (sorted((sorted(r["location"].items()), sorted(r["indices"]), r["residual"],
                    r["bracket_width"]) for r in d["records"]),
            sorted(json.dumps({k: v for k, v in s.items() if k not in ("levels", "triple")},
                              sort_keys=True) for s in d.get("skipped") or []))


shift = "n/a"
if len(ro) == len(rn):
    shift = f"{max((abs(a['location'][k] - b['location'][k]) for a, b in zip(ro, rn) for k in a['location']), default=0.0):.3g}"
print(f"  records {len(ro)} -> {len(rn)}, "
      f"levels {same(lambda d: [r['levels'] for r in d['records']])}, "
      f"indices {same(lambda d: [r['indices'] for r in d['records']])}, "
      f"skipped {same(lambda d: d.get('skipped'))}; largest location shift {shift}, "
      f"largest bracket_width {max((r['bracket_width'] for r in rn), default=0.0):.3g}; "
      f"{'same' if up_to_ids(old) == up_to_ids(new) else 'not the same'} up to level ids")
PY
}

run_tree "$work/ref" "$work/out_ref"
run_tree "$root" "$work/out_new"

status=0
for f in "$work"/out_ref/*; do
    name=$(basename "$f")
    case $name in *.stderr) continue ;; esac
    if [ ! -e "$work/out_new/$name" ]; then
        echo "missing in this tree: $name"
        status=1
    elif ! cmp -s "$f" "$work/out_new/$name"; then
        echo "differs: $name"
        records_summary "$f" "$work/out_new/$name"
        status=1
    else
        echo "same: $name"
    fi
done
for f in "$work"/out_new/*; do
    name=$(basename "$f")
    case $name in *.stderr) continue ;; esac
    if [ ! -e "$work/out_ref/$name" ]; then
        echo "new in this tree: $name"
        status=1
    fi
done
echo "package lines: $(cat "$work"/ref/src/pshchain/*.py | wc -l) -> $(cat "$root"/src/pshchain/*.py | wc -l)"
exit $status

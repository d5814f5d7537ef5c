#!/usr/bin/env bash
# Check that this tree writes the same output files as commit REF, byte for byte.
#
#   scripts/same_outputs.sh REF
#
# REF's files are exported into a temporary directory. Both trees run the
# seed-0 CLI calls of the three benchmark workloads (perfbench/run.py), the
# ep3_n4 call with 1 and with 2 workers, an EP3 search over an asymmetric
# coupling window (which solves every probe and every candidate, without the
# coupling mirror), the ep3_n4 search over the window (-0.981, 0.999), whose
# (3,4,7) and (8,11,12) records pair, one N=6 gain sweep through many EP2s,
# four `spectrum` calls, the gain-free crossing classification at N=4 (which
# refines every sign change of a pair's gap), one `find-ep --pair` search
# (which keeps the sweep's EP2 records of one pair), an N=4 gain sweep at a high
# indicator_floor (0.05), where one pair's real end has no well-defined index,
# so its EP2 is written as a "no well-defined index" skipped entry, and two
# calls that reach the defect test: an N=2 gain sweep whose grid point at
# gamma_tilde = 1 is an exact EP, solved again at a nudged value (exit 0), and
# a `spectrum` call at the exact EP of decoupled spins (exit 2).
#
# Against ba0f014 and older commits, the four spectrum_*.out files differ on
# purpose: `spectrum` solved the dense 2^N matrix there and solves its two Q
# blocks on the sector engine now. Values move in their last bits, each
# conjugate pair's rows now share their real part to the bit (lower
# half-plane first), and the levels inside a degenerate cluster come in
# another order. Matched values agree to 1e-12, and each degenerate cluster
# carries the same indices.
#
# Against a commit from before the EP3 search used the coupling mirror (2c07e07
# and older), ep3_n4_w1.out and ep3_n4_w2.out differ on purpose: the probe
# grid of the symmetric window is now exactly symmetric, so the j > 0 skipped
# entry's j_bracket and the window in its reason move by 1 ulp
# (0.5999999999999999 -> 0.6). The records do not move.
#
# Against 33516d1 and older commits, five files differ on purpose: a block
# of a gain-free point is symmetric, and is solved there by LAPACK's general
# real solver and now by its symmetric one. Every other file, each EP record
# JSON included, is the same.
# - sweep_n8_h.out: 10065 of 10240 rows, at all 40 points. re_eps moves by at
#   most 5.3e-14 and ep_indicator by 2.2e-16; every row keeps its z2_index.
# - sweep_n6_gt.out (63 rows) and ep2_floor.out (14 rows): only the rows of
#   the gamma_tilde = 0 point. re_eps moves by at most 6.2e-15 and
#   ep_indicator by 2.2e-16.
# - spectrum_n6_degenerate.out, the fully degenerate point jt = gt = 0:
#   values move by at most 2.7e-15, imaginary parts of up to 4.9e-17 become
#   0, and the levels inside a degenerate cluster come in another order.
#   Each cluster carries the same indices.
# - crossings_n4.out: tracks 10 and 11 swap labels, as track ids are set at
#   the degenerate start jt = -1. Apart from that swap every crossing keeps
#   its location, levels, indices and kind, and its gap moves by at most
#   2.5e-15, except within 4.2e-9 of the degeneracy at jt = 0, where the
#   list goes from 103 to 104 crossings.
# Against 8e072ec and older commits, the EP3 record files differ on purpose:
# find_ep3 now follows the closing wedge by its cusp law, and its records sit
# on the collision instead of on a wedge the gain bisection lost. Standard
# output, exit status and every skipped entry are the same.
# - ep3_n4_w1.out and ep3_n4_w2.out: both records move from (-/+0.7485696,
#   0.4124996) to (-/+0.7478532, 0.4137375), 7.16e-4 toward j = 0 and 1.238e-3
#   up the gain. residual goes from 8.3e-5 to 8.5e-10, bracket_width from
#   7.6e-7 to 9.9e-7.
# - ep3_n4_asym.out: its (3,4,7) record moves the same way.
# - ep3_n4_moved.out: the (3,4,7) record moves from (-0.7554342, 0.3999996),
#   7.58e-3 and 1.374e-2 away, to the (3,4,7) record above, and now pairs with
#   the (8,11,12) record, which moves as in ep3_n4_w1.out.
# Against a7a979c and older commits, the four EP2 record files differ on
# purpose: each EP2 is now the root of the pair's squared gap, found by
# Chandrupatla's method instead of bisection, so its bracket ends elsewhere
# within the tolerance. Every record keeps its levels and indices, every
# skipped entry is the same, and the EP3 records, crossings, spectra and
# sweep CSVs are the same.
# - verify_n4.out: 80 records; locations move by at most 7.4e-9, and
#   bracket_width is at most 7.0e-9.
# - sweep_n6_gt.json: 38 records; at most 7.1e-9, widths at most 9.3e-9.
# - ep2_floor.json: 3 records; at most 6.5e-9, widths at most 5.0e-9.
# - ep2_pair.out: 1 record; 1.4e-10, width 5.0e-9.
# Against 4f1efd4 and older commits, ep2_pair.out differs on purpose:
# `find-ep --pair` now keeps the pair's records of the sweep's EP2 refinement,
# which starts from the grid interval where the pair turns complex, instead
# of refining from the two ends of the whole span. So its bracket ends
# elsewhere within the tolerance: the record keeps its levels and indices and
# the skipped list stays empty; the location moves by 4.8e-9 and
# bracket_width is 5.0e-9. Every other file is the same.
# Every output file, standard output and exit status is compared with cmp
# (standard error is not, as it may name paths). For two EP record JSON files
# that differ, one more line says whether the record count, levels, indices
# and skipped entries match, with the largest location shift and the largest
# bracket_width in this tree. Exits 1 on any difference, 0 when all are
# identical. BLAS runs on one thread.
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
    "ep3_n4_w1|$ep3 --points 67 --workers 1"
    "ep3_n4_w2|$ep3 --points 67 --workers 2"
    "ep3_n4_asym|find-ep --order 3 --n 4 --j-start -0.9 --j-stop -0.6 --g-start 0.35 --g-stop 0.45 --points 11"
    "ep3_n4_moved|find-ep --order 3 --n 4 --j-start -0.981 --j-stop 0.999 --g-start 0.35 --g-stop 0.45 --points 67"
    "sweep_n8_h|sweep --n 8 --axis jt --fixed 0 --start -0.99 --stop 0.99 --points 40 --workers 1"
    "sweep_n6_gt|sweep --n 6 --axis gt --fixed 0.3 --start 0 --stop 0.5 --points 301"
    "spectrum_n4|spectrum --n 4 --jt 0.5 --gt 0.21"
    "spectrum_n4_profile|spectrum --n 4 --jt 0.5 --profile 0.3,-0.1,0.1,-0.3"
    "spectrum_n6_degenerate|spectrum --n 6 --jt 0 --gt 0 --format json"
    "spectrum_n6|spectrum --n 6 --jt -0.84184 --gt 0.3"
    "crossings_n4|crossings --n 4 --points 801"
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


shift = "n/a"
if len(ro) == len(rn):
    shift = f"{max((abs(a['location'][k] - b['location'][k]) for a, b in zip(ro, rn) for k in a['location']), default=0.0):.3g}"
print(f"  records {len(ro)} -> {len(rn)}, "
      f"levels {same(lambda d: [r['levels'] for r in d['records']])}, "
      f"indices {same(lambda d: [r['indices'] for r in d['records']])}, "
      f"skipped {same(lambda d: d.get('skipped'))}; largest location shift {shift}, "
      f"largest bracket_width {max((r['bracket_width'] for r in rn), default=0.0):.3g}")
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
exit $status

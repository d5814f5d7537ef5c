#!/usr/bin/env bash
# Check that this tree writes the same output files as commit REF, byte for byte.
#
#   scripts/same_outputs.sh REF
#
# REF is checked out in a temporary git worktree. Both trees run the seed-0
# CLI calls of the three benchmark workloads (perfbench/run.py), the ep3_n4
# call with 1 and with 2 workers, and one N=6 gain sweep through many EP2s.
# Every output file, standard output and exit status is compared with cmp
# (standard error is not, as it may name paths). Exits 1 on
# any difference, 0 when all are identical. BLAS runs on one thread.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 64
fi
ref=$1
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/same_outputs.XXXXXX")
cleanup() {
    git -C "$root" worktree remove --force "$work/ref" >/dev/null 2>&1 || true
    git -C "$root" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$work/ref" "$ref"

export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

# name, then the CLI arguments without --output
ep3="find-ep --order 3 --n 4 --j-start -0.99 --j-stop 0.99 --g-start 0.35 --g-stop 0.45"
calls=(
    "verify_n4|verify --n 4 --points 801 --gammas 0.05,0.21,0.40125,0.48375 --workers 1"
    "ep3_n4_w1|$ep3 --points 67 --workers 1"
    "ep3_n4_w2|$ep3 --points 67 --workers 2"
    "sweep_n8_h|sweep --n 8 --axis jt --fixed 0 --start -0.99 --stop 0.99 --points 40 --workers 1"
    "sweep_n6_gt|sweep --n 6 --axis gt --fixed 0.3 --start 0 --stop 0.5 --points 301"
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

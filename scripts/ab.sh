#!/usr/bin/env bash
# Same-host A/B of simulator speed: the working tree against REF.
#
#   scripts/ab.sh REF        # e.g. scripts/ab.sh HEAD, scripts/ab.sh main
#
# Builds the e2e_loop example (MP3D/BASIC/RC, Small scale, 16 processors)
# for REF, checked out in a temporary git worktree, and for the working
# tree, each into its own target dir under target/ab/. Then runs 10
# interleaved pairs, alternating which side runs first, and prints each
# pair's sim-cycles/sec, the per-pair ratios (working tree / REF), the
# median ratio and REF's quartiles.
#
# Exits 1 only when the working tree is slower in at least 9 of the 10
# pairs AND its median is below REF's by more than REF's interquartile
# distance. The bound is the spread measured in the same run, so there is
# no threshold to tune. Exits 2 on a usage or build error.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: scripts/ab.sh REF" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
ref=$(git rev-parse --verify --quiet "$1^{commit}") || {
    echo "ab.sh: '$1' is not a commit" >&2
    exit 2
}
out=$root/target/ab
tmp=$(mktemp -d)
tree=$tmp/ref
cleanup() {
    git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

build() { # DIR TARGET_DIR
    (cd "$1" && CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
        --example e2e_loop) || exit 2
}
git worktree add --quiet --detach "$tree" "$ref"
echo "ab.sh: building e2e_loop for REF ${ref:0:12} and the working tree" >&2
build "$tree" "$out/ref"
build "$root" "$out/work"

rate() { # BIN -> sim-cycles/sec, from the loop's "... N sim-cycles/sec" line
    "$1" 2>&1 >/dev/null | awk '/sim-cycles\/sec/ { print $(NF - 1) }'
}
refs=() works=()
for i in $(seq 1 10); do
    if [ $((i % 2)) -eq 1 ]; then
        r=$(rate "$out/ref/release/examples/e2e_loop")
        w=$(rate "$out/work/release/examples/e2e_loop")
    else
        w=$(rate "$out/work/release/examples/e2e_loop")
        r=$(rate "$out/ref/release/examples/e2e_loop")
    fi
    refs+=("$r") works+=("$w")
done

python3 - "${refs[*]}" "${works[*]}" <<'EOF'
import statistics, sys

ref = [float(x) for x in sys.argv[1].split()]
work = [float(x) for x in sys.argv[2].split()]
print("pair  first     ref cyc/s    work cyc/s   ratio")
for i, (r, w) in enumerate(zip(ref, work)):
    first = "ref" if i % 2 == 0 else "work"
    print(f"{i + 1:4}  {first:5} {r:13.0f} {w:13.0f}  {w / r:6.3f}")
ratios = sorted(w / r for r, w in zip(ref, work))
q1, ref_med, q3 = statistics.quantiles(ref, n=4)
work_med = statistics.median(work)
slower = sum(w < r for r, w in zip(ref, work))
iqr = q3 - q1
print(f"ratios (sorted): {' '.join(f'{x:.3f}' for x in ratios)}")
print(f"median ratio {statistics.median(ratios):.3f}; working tree slower in {slower}/10 pairs")
print(f"REF median {ref_med:.0f}, quartiles {q1:.0f} / {q3:.0f} "
      f"(interquartile distance {100 * iqr / ref_med:.1f}%)")
print(f"working-tree median {work_med:.0f} ({100 * (work_med / ref_med - 1):+.1f}% vs REF)")
if slower >= 9 and ref_med - work_med > iqr:
    print("ab.sh: FAIL — the working tree is slower than REF beyond REF's spread")
    sys.exit(1)
print("ab.sh: pass")
EOF

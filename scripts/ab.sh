#!/bin/sh
# Alternating base/change A/B of the reference benchmark (bench/).
#
# usage: scripts/ab.sh [-n PAIRS] [-s SEED] [-d DIR] [-l METRIC,...] BASE [CHANGE]
#
# BASE and CHANGE are git revisions; CHANGE defaults to the working
# tree (tracked files plus untracked ones that are not ignored). Each
# side is exported to DIR/<side>/src and its harness built there in
# release, into DIR/<side>/target, so a side reads and writes only its
# own copy (a run writes under <copy>/bench/out). Side `a` is BASE,
# side `b` is CHANGE.
#
# Then PAIRS pairs of `--all --seed SEED --runs 1` run alternately
# (a b, b a, a b, ...). Each side's `workloads.<name>.runs` are merged
# into DIR/a.json and DIR/b.json, and the change's harness judges them
# with `--compare DIR/a.json DIR/b.json`. A summary follows: for every
# workload, each end-to-end metric and each per-layer metric named with
# -l, the median of each side, b/a, and how many pairs b won (ties
# count for neither side). The exit status is that of --compare.
#
# Defaults: 10 pairs, seed 7, DIR a fresh `mktemp -d`. One pair takes
# about four minutes on two cores. Needs git, cargo and python3.
set -eu

usage() {
    sed -n 4p "$0" | sed 's/^# //' >&2
    exit 2
}

pairs=10
seed=7
dir=
layers=
while getopts n:s:d:l: opt; do
    case $opt in
    n) pairs=$OPTARG ;;
    s) seed=$OPTARG ;;
    d) dir=$OPTARG ;;
    l) layers=$OPTARG ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] && [ $# -le 2 ] || usage
base=$1
change=${2-}

repo=$(git rev-parse --show-toplevel)
[ -n "$dir" ] || dir=$(mktemp -d)
case $dir in
/*) ;;
*) dir=$PWD/$dir ;;
esac
case $dir/ in
"$repo"/*)
    echo "ab.sh: DIR must lie outside the repository (the working tree is exported from it)" >&2
    exit 2
    ;;
esac
mkdir -p "$dir"

# export REV DEST: the tree of REV, or of the working tree when REV is
# empty (staged through a throwaway index, so the real one is untouched).
export_tree() {
    rm -rf "$2"
    mkdir -p "$2"
    if [ -n "$1" ]; then
        tree=$1
    else
        rm -f "$dir/index"
        GIT_INDEX_FILE=$dir/index git -C "$repo" add -A
        tree=$(GIT_INDEX_FILE=$dir/index git -C "$repo" write-tree)
        rm -f "$dir/index"
    fi
    git -C "$repo" archive "$tree" | tar -x -C "$2"
}

for side in a b; do
    if [ $side = a ]; then rev=$base; else rev=$change; fi
    echo "== building $side (${rev:-working tree})" >&2
    export_tree "$rev" "$dir/$side/src"
    CARGO_TARGET_DIR=$dir/$side/target cargo build --release --offline --locked --quiet \
        --manifest-path "$dir/$side/src/bench/Cargo.toml"
done

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) = 1 ]; then order="a b"; else order="b a"; fi
    for side in $order; do
        echo "== pair $i/$pairs: $side" >&2
        "$dir/$side/target/release/balsa-bench" --all --seed "$seed" --runs 1 \
            --out "$dir/$side/run-$i.json" >&2
    done
    i=$((i + 1))
done

python3 - "$dir" "$pairs" <<'EOF'
import json, sys
dir, pairs = sys.argv[1], int(sys.argv[2])
for side in "ab":
    docs = [json.load(open(f"{dir}/{side}/run-{i}.json")) for i in range(1, pairs + 1)]
    merged = docs[0]
    for name, w in merged["workloads"].items():
        w["runs"] = [run for d in docs for run in d["workloads"][name]["runs"]]
    merged["header"]["runs"] = len(docs)
    with open(f"{dir}/{side}.json", "w") as f:
        json.dump(merged, f, indent=1)
EOF

status=0
"$dir/b/target/release/balsa-bench" --compare "$dir/a.json" "$dir/b.json" || status=$?

python3 - "$dir" "$layers" <<'EOF'
import json, statistics, sys
dir, layers = sys.argv[1], [l for l in sys.argv[2].split(",") if l]
spec = json.load(open(f"{dir}/b/src/BENCHMARK.json"))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
a, b = (json.load(open(f"{dir}/{side}.json"))["workloads"] for side in "ab")
rows = [("end_to_end", m["name"]) for m in spec["end_to_end"]]
rows += [("per_layer", name) for name in layers]
print(f"\n{'workload':<22} {'metric':<28} {'a median':>12} {'b median':>12} {'b/a':>7}  b won")
for workload in a:
    for group, name in rows:
        def values(side):
            return [(r.get(group) or {}).get(name, {}).get("value") for r in side[workload]["runs"]]
        va, vb = values(a), values(b)
        pairs = [(x, y) for x, y in zip(va, vb) if x is not None and y is not None]
        if not pairs:
            print(f"{workload:<22} {name:<28} {'absent':>12}")
            continue
        lower = better.get(name, "lower") == "lower"
        won = sum(1 for x, y in pairs if (y < x if lower else y > x))
        ma = statistics.median(x for x, _ in pairs)
        mb = statistics.median(y for _, y in pairs)
        ratio = f"{mb / ma:7.3f}" if ma else "      -"
        print(f"{workload:<22} {name:<28} {ma:12.6g} {mb:12.6g} {ratio}  {won}/{len(pairs)}")
EOF
exit $status

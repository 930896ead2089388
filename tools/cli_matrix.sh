#!/usr/bin/env bash
# Run a fixed matrix of ltrnas CLI commands with the package found in SRC_DIR
# and write every output under OUT_DIR. Two trees (say, of two commits) have
# byte-identical outputs exactly when `diff -r` of their OUT_DIRs is empty.
#
# usage: tools/cli_matrix.sh SRC_DIR OUT_DIR
#   SRC_DIR  the directory that holds the ltrnas package (a checkout's src/)
#   OUT_DIR  a new or empty directory
#
# The matrix, at the flags of bench/run.py and with fixed seeds:
#   synth     5000 records, nodes 5-11, vocabulary 9, tau 0.6
#   pretrain  1000 weak labels, 1 epoch, the 4x64 model with sort-pool 12;
#             and the bench's pretrain: 4000 weak labels, 2 epochs
#   search    full, ranknet, vanilla-mse, random, ws-greedy, full with
#             --no-pretrain and exploit-only full (--alpha 1, so every pick
#             after round 1 comes from pool scoring): budget 100 in 5 rounds,
#             top-10, 60 epochs, patience 15, probe 512; and full with
#             --probe-size 0 --patience 0, so a finetune that runs every
#             epoch and a search without a probe are covered too; and full
#             at the CLI's finetune defaults, --epochs 300 --patience 50,
#             where most finetunes reach a holdout NDCG of 1.0 and stop
#             there. Only full and ranknet are given --checkpoint
#   report    over the seven search runs before the no-probe one
#   default   search --baseline full into search-full-flag, the default
#             spelled out; every file must equal search-full's, run_config.json
#             but for its out, or the script fails
#   unread    ws-greedy with --epochs 6, random with --lr 0.01 or --alpha 0.9
#             and vanilla-mse with --checkpoint: flags those methods do not
#             read, so every file must equal that of the same method's run
#             without them, run_config.json but for its out, or the script
#             fails; the same for ws-greedy with --topk 3 against --topk 4.
#             ws-greedy reads no round flag, so it also runs with --budget 7,
#             which 5 rounds do not divide, and its --config replay must
#             equal it
#   replay    search --config search-full/run_config.json into search-replay;
#             every file must equal search-full's, run_config.json but for
#             its out, or the script fails
#   two cells synth --cells 2 with 800 records, a 1-epoch pretrain on all of
#             them and a full search, so the multi-cell encoder is covered
#   wide vocabulary, no hyper-parameters
#             synth --vocab-size 14 --hparam-dim 0 with 800 records (numbered
#             ops, a model without hproj), a 1-epoch pretrain on all of them
#             and a full search
#   synth corners, synth only, 300 records each: nodes 3-16 with 3 cells,
#             5 hyper-parameters and vocabulary 5 (cells of every size the
#             sampler's forward-pair table holds, the widest hyper-parameter
#             draw); and --tau 1.0, which takes calibration's amplitude-0 path
# Commands run inside OUT_DIR with relative paths, so the paths recorded in
# run_config.json match between runs. Each command's standard output is
# appended to OUT_DIR/stdout.txt. About 35 s on a 2-vCPU VM.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 SRC_DIR OUT_DIR" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
if [ ! -f "$src/ltrnas/cli.py" ]; then
    echo "error: $src has no ltrnas/cli.py" >&2
    exit 2
fi
mkdir -p "$2"
out=$(cd "$2" && pwd)
if [ -n "$(ls -A "$out")" ]; then
    echo "error: $out is not empty" >&2
    exit 2
fi

model=(--hidden 64 --layers 4 --sortpool 12 --conv1d 16 --hparam-proj 8 --head-hidden 64)
search=(--seed 3 --budget 100 --rounds 5 --topk 10 --epochs 60 --patience 15 --probe-size 512 "${model[@]}")

ltrnas() {
    PYTHONPATH="$src" python3 -m ltrnas.cli "$@" >> stdout.txt
}

# Fail unless run directory $2 holds the files of $1, byte for byte, with
# run_config.json compared without its "out" line.
same_run() {
    for f in "$1"/*; do
        if [ "${f##*/}" = run_config.json ]; then
            diff <(grep -v '^  "out": ' "$f") <(grep -v '^  "out": ' "$2/run_config.json")
        else
            cmp "$f" "$2/${f##*/}"
        fi
    done
}

cd "$out"
space=(--nodes-min 5 --nodes-max 11 --vocab-size 9 --tau 0.6)
ltrnas synth --out space --seed 1 --size 5000 "${space[@]}"
ltrnas pretrain --out pre --seed 2 --space space/space.jsonl --sample 1000 --lr 0.005 --epochs 1 "${model[@]}"
ltrnas pretrain --out pre-bench --seed 2 --space space/space.jsonl --sample 4000 --lr 0.005 --epochs 2 "${model[@]}"
ltrnas search --out search-full --space space/space.jsonl --checkpoint pre/checkpoint.json "${search[@]}"
ltrnas search --out search-full-flag --baseline full --space space/space.jsonl --checkpoint pre/checkpoint.json \
    "${search[@]}"
same_run search-full search-full-flag
ltrnas search --out search-ranknet --baseline ranknet --space space/space.jsonl --checkpoint pre/checkpoint.json \
    "${search[@]}"
for baseline in vanilla-mse random ws-greedy; do
    ltrnas search --out "search-$baseline" --baseline "$baseline" --space space/space.jsonl "${search[@]}"
done
ltrnas search --out search-no-pretrain --no-pretrain --space space/space.jsonl "${search[@]}"
ltrnas search --out search-exploit --alpha 1 --space space/space.jsonl --checkpoint pre/checkpoint.json \
    "${search[@]}"
ltrnas search --out search-no-probe --space space/space.jsonl --checkpoint pre/checkpoint.json \
    "${search[@]}" --probe-size 0 --patience 0
ltrnas search --out search-cli-default --space space/space.jsonl --checkpoint pre/checkpoint.json \
    "${search[@]}" --epochs 300 --patience 50
ltrnas report search-full search-ranknet search-vanilla-mse search-random search-ws-greedy \
    search-no-pretrain search-exploit --out report
ltrnas search --config search-full/run_config.json --out search-replay
same_run search-full search-replay
ltrnas search --out search-ws-greedy-epochs --baseline ws-greedy --space space/space.jsonl "${search[@]}" --epochs 6
same_run search-ws-greedy search-ws-greedy-epochs
ltrnas search --out search-random-lr --baseline random --space space/space.jsonl "${search[@]}" --lr 0.01
same_run search-random search-random-lr
ltrnas search --out search-vanilla-mse-checkpoint --baseline vanilla-mse --space space/space.jsonl \
    --checkpoint pre/checkpoint.json "${search[@]}"
same_run search-vanilla-mse search-vanilla-mse-checkpoint
ltrnas search --out search-random-alpha --baseline random --space space/space.jsonl "${search[@]}" --alpha 0.9
same_run search-random search-random-alpha
for topk in 3 4; do
    ltrnas search --out "search-ws-greedy-top$topk" --baseline ws-greedy --space space/space.jsonl "${search[@]}" \
        --topk "$topk"
done
same_run search-ws-greedy-top3 search-ws-greedy-top4
ltrnas search --out search-ws-greedy-budget --baseline ws-greedy --space space/space.jsonl "${search[@]}" --budget 7
ltrnas search --config search-ws-greedy-budget/run_config.json --out search-ws-greedy-budget-replay
same_run search-ws-greedy-budget search-ws-greedy-budget-replay

ltrnas synth --out space-two-cells --seed 4 --size 800 --cells 2 "${space[@]}"
ltrnas pretrain --out pre-two-cells --seed 5 --space space-two-cells/space.jsonl --sample 800 --lr 0.005 \
    --epochs 1 "${model[@]}"
ltrnas search --out search-two-cells --space space-two-cells/space.jsonl \
    --checkpoint pre-two-cells/checkpoint.json "${search[@]}"

ltrnas synth --out space-wide --seed 6 --size 800 --vocab-size 14 --hparam-dim 0 --nodes-min 5 --nodes-max 11 \
    --tau 0.6
ltrnas pretrain --out pre-wide --seed 7 --space space-wide/space.jsonl --sample 800 --lr 0.005 --epochs 1 \
    "${model[@]}"
ltrnas search --out search-wide --space space-wide/space.jsonl --checkpoint pre-wide/checkpoint.json "${search[@]}"

ltrnas synth --out space-corners --seed 8 --size 300 --nodes-min 3 --nodes-max 16 --cells 3 --hparam-dim 5 \
    --vocab-size 5 --tau 0.6
ltrnas synth --out space-tau-one --seed 9 --size 300 --nodes-min 5 --nodes-max 11 --vocab-size 9 --tau 1.0

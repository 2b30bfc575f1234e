#!/usr/bin/env bash
# Run the rnacc console script through every command that CI checks outside pytest.
#
#     bash .github/cli_smoke.sh DIR
#
# DIR is an existing, empty directory. It receives the inputs of write_trajectory.py
# and the three accelerate outputs that check_c11.py compares. Exits nonzero at the
# first command that fails or check that does not hold.
set -euo pipefail
dir=$1

rnacc --help
for command in run accelerate sweep; do rnacc "$command" --help; done
rnacc run --epochs 3 --out "$dir/m.csv"
rnacc run --problem quadratic --epochs 3 --out "$dir/q.csv"
rnacc run --problem logistic --epochs 3 --out "$dir/l.csv"
# The training driver's grid branch, which pytest alone reaches otherwise.
rnacc run --problem logistic --epochs 6 --k 4 --lambda-grid 1e-10,1e-6 --out "$dir/lg.csv"
# Flags read as spec lines do: whole floats run exactly as the integers.
rnacc run --epochs 3 --k 2 --seed 2 --out "$dir/whole.csv"
rnacc run --epochs 3.0 --k 2.0 --seed 2.0 --out "$dir/whole_float.csv"
cmp "$dir/whole.csv" "$dir/whole_float.csv"
rnacc sweep --problem quadratic --epochs 3 --k-list 2 --lambda-list 1e-8 --out "$dir/sweep"
rnacc sweep --problem logistic --epochs 3 --k-list 2 --lambda-list 1e-8 --out "$dir/sweep_l"

# One 6-iterate trajectory as one f64 file and as a directory of six f32 files.
python .github/write_trajectory.py "$dir"
rnacc accelerate "$dir/traj.rnac" --k 4 --out "$dir/from_file.rnac"
rnacc accelerate "$dir/traj" --k 4 --out "$dir/from_dir.rnac"
rnacc accelerate "$dir/traj.rnac" --k 4 --lambda-grid 1e-8,1e-6 \
  --scores "$dir/scores.txt" --out "$dir/from_grid.rnac"

# A window near the bottom of the float64 range, solved at lam = 0, exits 0 with
# nothing on stderr, or 3 with one error line. The same window near the top, ranked
# over ridges up to 1e300, exits 0 with nothing on stderr: no numpy warning.
status=0
rnacc accelerate "$dir/tiny.rnac" --k 10 --lambda 0 --out "$dir/tiny_out.rnac" \
  2> "$dir/tiny.err" || status=$?
if [ "$status" -eq 0 ]; then
  test ! -s "$dir/tiny.err"
else
  test "$status" -eq 3
  test "$(wc -l < "$dir/tiny.err")" -eq 1
  grep -q '^error: ' "$dir/tiny.err"
fi
rnacc accelerate "$dir/huge.rnac" --k 10 --lambda-grid 1e-8,1e290,1e300 \
  --scores "$dir/huge_scores.txt" --out "$dir/huge_out.rnac" 2> "$dir/huge.err"
test ! -s "$dir/huge.err"

# Only the window's values are checked: a NaN in the oldest of six checkpoints is
# ignored by a window of 5 (--k 4), with the bits of the clean directory, and exits 3
# in a window of 6 (--k 5), writing nothing.
rnacc accelerate "$dir/nan" --k 4 --out "$dir/from_nan.rnac"
cmp "$dir/from_dir.rnac" "$dir/from_nan.rnac"
status=0
rnacc accelerate "$dir/nan" --k 5 --out "$dir/nan_k5.rnac" || status=$?
test "$status" -eq 3
test ! -e "$dir/nan_k5.rnac"

# A FIFO checkpoint path exits 4 without being opened, which would wait for a writer.
mkfifo "$dir/fifo"
status=0
timeout 10 rnacc accelerate "$dir/fifo" --out "$dir/fifo.rnac" || status=$?
test "$status" -eq 4
test ! -e "$dir/fifo.rnac"

# A manifest.txt that is a directory, or a FIFO, exits 4 without being opened, and so
# does a manifest name that holds a NUL byte, with one error line; nothing is written.
for kind in mdir mfifo mnul; do cp -r "$dir/traj" "$dir/$kind"; done
mkdir "$dir/mdir/manifest.txt"
mkfifo "$dir/mfifo/manifest.txt"
printf '0.rnac\nb\0c\n' > "$dir/mnul/manifest.txt"
for kind in mdir mfifo mnul; do
  status=0
  timeout 10 rnacc accelerate "$dir/$kind" --k 4 --out "$dir/$kind.rnac" 2> "$dir/$kind.err" \
    || status=$?
  test "$status" -eq 4
  test "$(wc -l < "$dir/$kind.err")" -eq 1
  grep -q '^error: ' "$dir/$kind.err"
  test ! -e "$dir/$kind.rnac"
done

# A spec whose metrics_out holds a NUL byte exits 4 before any epoch, and writes nothing.
printf 'epochs = 3\nmetrics_out = %s/m\0.csv\n' "$dir" > "$dir/nul.spec"
before=$(ls -A "$dir")
status=0
rnacc run --spec "$dir/nul.spec" || status=$?
test "$status" -eq 4
test "$(ls -A "$dir")" = "$before"

# An --out inside the input directory, on the input file or on the scores file,
# exits 2 and changes nothing.
before=$(cat "$dir/traj.rnac" "$dir"/traj/* "$dir/scores.txt" | sha256sum)
status=0
rnacc accelerate "$dir/traj" --k 4 --out "$dir/traj/again.rnac" || status=$?
test "$status" -eq 2
status=0
rnacc accelerate "$dir/traj.rnac" --k 4 --out "$dir/traj.rnac" || status=$?
test "$status" -eq 2
status=0
rnacc accelerate "$dir/traj.rnac" --k 4 --lambda-grid 1e-8,1e-6 \
  --scores "$dir/scores.txt" --out "$dir/scores.txt" || status=$?
test "$status" -eq 2
test ! -e "$dir/traj/again.rnac"
test "$(cat "$dir/traj.rnac" "$dir"/traj/* "$dir/scores.txt" | sha256sum)" = "$before"

# An output in a missing directory exits 4 before any work, and nothing is made.
status=0
rnacc run --epochs 3 --out "$dir/missing/m.csv" || status=$?
test "$status" -eq 4
status=0
rnacc accelerate "$dir/traj.rnac" --k 4 --out "$dir/missing/o.rnac" || status=$?
test "$status" -eq 4
test ! -e "$dir/missing"

# An output path that names no file exits 4 before any work, and nothing is made:
# one that ends in a separator, and an empty one.
before=$(ls -A "$dir")
status=0
rnacc run --epochs 3 --out "$dir/nd/" || status=$?
test "$status" -eq 4
status=0
rnacc accelerate "$dir/traj.rnac" --k 4 --out '' || status=$?
test "$status" -eq 4
test "$(ls -A "$dir")" = "$before"

# A 250-byte output name is written, and a window beyond the epochs uses every
# iterate held.
long=$(printf 'L%.0s' $(seq 250))
rnacc run --epochs 3 --out "$dir/$long"
test -s "$dir/$long"
rnacc sweep --epochs 3 --k-list 1e30 --lambda-list 1e-8 --out "$dir/sweep_huge"
test -s "$dir/sweep_huge/summary.csv"

# An output that is a directory exits 4 before any work, and so does a sweep whose
# out directory holds a summary.csv directory; nothing is written.
mkdir "$dir/isdir" "$dir/sw" "$dir/sw/summary.csv"
status=0
rnacc run --epochs 3 --out "$dir/isdir" || status=$?
test "$status" -eq 4
status=0
rnacc accelerate "$dir/traj.rnac" --k 4 --out "$dir/isdir" || status=$?
test "$status" -eq 4
status=0
rnacc sweep --epochs 3 --k-list 2 --lambda-list 1e-8 --out "$dir/sw" || status=$?
test "$status" -eq 4
test "$(find "$dir/isdir" "$dir/sw" -mindepth 1)" = "$dir/sw/summary.csv"

# An unknown --problem exits 2 with the message that its spec line gives.
printf 'problem = svm\n' > "$dir/svm.spec"
status=0
rnacc run --problem svm --out "$dir/svm.csv" 2> "$dir/svm_flag.err" || status=$?
test "$status" -eq 2
status=0
rnacc run --spec "$dir/svm.spec" --out "$dir/svm.csv" 2> "$dir/svm_spec.err" || status=$?
test "$status" -eq 2
cmp "$dir/svm_flag.err" "$dir/svm_spec.err"
test ! -e "$dir/svm.csv"

# A sweep's list entry reads as run's flag: a rejected one gives run's message.
status=0
rnacc run --epochs 3 --k abc --out "$dir/kabc.csv" 2> "$dir/k_run.err" || status=$?
test "$status" -eq 2
status=0
rnacc sweep --epochs 3 --k-list abc --lambda-list 1e-8 --out "$dir/kabc" \
  2> "$dir/k_sweep.err" || status=$?
test "$status" -eq 2
cmp "$dir/k_run.err" "$dir/k_sweep.err"
test ! -e "$dir/kabc.csv"
test ! -e "$dir/kabc"

# A batch size the problem cannot serve exits 2 before the reference optimum, as in
# run, and so does an --out that cannot be made with 4; nothing is made.
printf 'problem = logistic\nproblem.n_samples = 50\noptimizer.batch_size = 100\n' \
  > "$dir/batch.spec"
touch "$dir/afile"
before=$(ls -A "$dir")
status=0
rnacc sweep --spec "$dir/batch.spec" --epochs 3 --k-list 2 --lambda-list 1e-8 \
  --out "$dir/batch" || status=$?
test "$status" -eq 2
status=0
rnacc sweep --epochs 3 --k-list 2 --lambda-list 1e-8 --out "$dir/afile/sub" || status=$?
test "$status" -eq 4
test "$(ls -A "$dir")" = "$before"
test ! -s "$dir/afile"

# Flag text is read without the spaces around it, as a spec value is.
rnacc run --problem ' logistic' --epochs 3 --out "$dir/l_padded.csv"
cmp "$dir/l.csv" "$dir/l_padded.csv"

#!/bin/sh
# shrimp_run must reject a malformed or out-of-range integer flag
# before running anything: exit status 2, with the flag named on
# stderr. Usage: shrimp_run_flags.sh path/to/shrimp_run
#
# Each call is a small radix run and is cut after 20 s, so a build
# that accepts a bad value fails here instead of hanging.
run=$1
fail=0

expect_rejected() {
    flag=$1
    shift
    err=$(timeout 20 "$run" --app radix-vmmc --keys 16384 "$flag" "$@" \
        2>&1 >/dev/null)
    status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: $flag $*: exit $status, want 2"
        fail=1
    elif ! printf '%s\n' "$err" | grep -q -- "$flag"; then
        echo "FAIL: $flag $*: stderr does not name the flag: $err"
        fail=1
    fi
}

for flag in --procs --grid --bodies --steps --fifo --du-queue; do
    for value in 0 -2 abc 12abc "" 99999999999; do
        expect_rejected "$flag" "$value"
    done
done
for value in -1 abc 3s 99999999999; do
    expect_rejected --watchdog-secs "$value"
done
# More processors than the largest mesh can hold.
expect_rejected --procs 65537
# Intra-run threads are gone; the flag is an unknown option now.
expect_rejected --threads 2
timeout 20 "$run" --app radix-vmmc --keys 16384 --threads 2 \
    2>&1 >/dev/null |
    grep -q "unknown option" || {
    echo "FAIL: --threads is not reported as an unknown option"
    fail=1
}

exit $fail

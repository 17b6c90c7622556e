#!/bin/sh
# shrimp_run must reject a malformed or out-of-range numeric flag
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
# 64-bit flags: no sign, no trailing text, no overflow; --keys >= 1.
for value in 0 -2 abc 12abc "" " 5" +5; do
    expect_rejected --keys "$value"
done
for flag in --seed --fault-seed; do
    for value in -1 abc 12abc "" +5 18446744073709551616; do
        expect_rejected "$flag" "$value"
    done
done
# Real-valued flags: the whole argument must be a plain decimal
# number in range (rates in [0, 1], durations not negative).
for flag in --fault-drop-rate --fault-corrupt-rate --fault-jitter-rate; do
    for value in abc 0.5x "" -0.1 1.5 +0.5 nan inf 0x1; do
        expect_rejected "$flag" "$value"
    done
done
for flag in --fault-max-jitter --metrics-interval-us; do
    for value in abc 10us "" -5 +5 nan inf 1e300; do
        expect_rejected "$flag" "$value"
    done
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

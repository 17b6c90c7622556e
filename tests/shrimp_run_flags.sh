#!/bin/sh
# shrimp_run must reject a malformed or out-of-range numeric flag, or
# SHRIMP_* variable, before running anything: exit status 2, with the
# flag or variable named on stderr. A flag beats the environment, and
# an empty variable counts as unset.
# Usage: shrimp_run_flags.sh path/to/shrimp_run
#
# Each call is a small radix run and is cut after 20 s, so a build
# that accepts a bad value fails here instead of hanging.
run=$1
fail=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

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


# The environment is parsed as strictly as the flags.
expect_env_rejected() {
    var=$1
    value=$2
    err=$(env "$var=$value" timeout 20 "$run" --app radix-vmmc \
        --keys 16384 2>&1 >/dev/null)
    status=$?
    if [ "$status" -ne 2 ]; then
        echo "FAIL: $var=$value: exit $status, want 2"
        fail=1
    elif ! printf '%s\n' "$err" | grep -q -- "$var"; then
        echo "FAIL: $var=$value: stderr does not name it: $err"
        fail=1
    fi
}
for value in abc -0.1 1.5 nan; do
    expect_env_rejected SHRIMP_FAULT_DROP_RATE "$value"
done
for value in abc -1 3s; do
    expect_env_rejected SHRIMP_WATCHDOG_SECS "$value"
done
for value in abc -5 inf; do
    expect_env_rejected SHRIMP_METRICS_INTERVAL_US "$value"
done
expect_env_rejected SHRIMP_FAULT_SEED -1
expect_env_rejected SHRIMP_NIC myrinet
expect_env_rejected SHRIMP_MESH banana
expect_env_rejected SHRIMP_LIFECYCLE yes

# The SHRIMP adapter's what-if flags set parameters no other NIC
# reads: on another NIC, named by flag (before or after) or by the
# environment, the run must stop and name both the flag and the NIC.
# Usage: expect_nic_rejected NIC FLAG [ARG]
expect_nic_rejected() {
    nic=$1
    flag=$2
    shift
    for how in before after env; do
        case $how in
          before) err=$(timeout 20 "$run" --app radix-vmmc --keys 16384 \
              --nic "$nic" "$@" 2>&1 >/dev/null) ;;
          after) err=$(timeout 20 "$run" --app radix-vmmc --keys 16384 \
              "$@" --nic "$nic" 2>&1 >/dev/null) ;;
          env) err=$(SHRIMP_NIC=$nic timeout 20 "$run" --app radix-vmmc \
              --keys 16384 "$@" 2>&1 >/dev/null) ;;
        esac
        status=$?
        if [ "$status" -ne 2 ]; then
            echo "FAIL: $* on $nic ($how): exit $status, want 2"
            fail=1
        elif ! printf '%s\n' "$err" | grep -q -- "$flag.*$nic"; then
            echo "FAIL: $* on $nic ($how): stderr does not name the" \
                "flag and the NIC: $err"
            fail=1
        fi
    done
}
for nic in baseline modern; do
    expect_nic_rejected "$nic" --interrupt-per-message
    expect_nic_rejected "$nic" --no-combining
    expect_nic_rejected "$nic" --fifo 1024
    expect_nic_rejected "$nic" --du-queue 2
done
timeout 20 "$run" --app radix-vmmc --keys 16384 --nic shrimp --fifo 1024 \
    --du-queue 2 --no-combining --interrupt-per-message >/dev/null 2>&1 || {
    echo "FAIL: the SHRIMP NIC's what-if flags are rejected on it"
    fail=1
}

# A flag beats the environment, and the report's cli_fault_* params
# describe the configuration that was simulated: with the variable
# set against the flag, the run and its report match the flag alone.
same_run() {
    what=$1
    shift
    fault="--app radix-vmmc --procs 16 --keys 16384 --steps 1"
    timeout 60 "$run" $fault "$@" --stats-json "$tmp/flag.json" \
        >/dev/null 2>&1
    timeout 60 env "$what" "$run" $fault "$@" \
        --stats-json "$tmp/both.json" >/dev/null 2>&1
    if ! cmp -s "$tmp/flag.json" "$tmp/both.json"; then
        echo "FAIL: $what $*: the environment beat the flag"
        fail=1
    fi
}
same_run SHRIMP_FAULT_SEED=5 --fault-drop-rate 0.02 --fault-seed 7
grep -q '"cli_fault_seed": "7"' "$tmp/both.json" || {
    echo "FAIL: the report does not say cli_fault_seed 7"
    fail=1
}
same_run SHRIMP_FAULT_DROP_RATE=0 --fault-drop-rate 0.02
grep -q '"cli_fault_drop_rate": "0.02' "$tmp/both.json" || {
    echo "FAIL: the report does not say cli_fault_drop_rate 0.02"
    fail=1
}
grep -q '"mesh.drops": 0,' "$tmp/both.json" && {
    echo "FAIL: --fault-drop-rate 0.02 dropped no packets"
    fail=1
}

# An empty variable is unset: SHRIMP_METRICS= starts no sampler (its
# events would show in the host block's deterministic event count).
events() {
    sed -n 's/.*"events": \([0-9]*\).*/\1/p' "$1"
}
ocean="--app ocean-nx --procs 4 --grid 34 --steps 1"
SHRIMP_REPORT_HOST=1 timeout 20 "$run" $ocean \
    --stats-json "$tmp/plain.json" >/dev/null 2>&1
SHRIMP_REPORT_HOST=1 SHRIMP_METRICS= timeout 20 "$run" $ocean \
    --stats-json "$tmp/empty.json" >/dev/null 2>&1
if [ -z "$(events "$tmp/plain.json")" ] ||
    [ "$(events "$tmp/plain.json")" != "$(events "$tmp/empty.json")" ]; then
    echo "FAIL: SHRIMP_METRICS= changed the run's event count"
    fail=1
fi

exit $fail

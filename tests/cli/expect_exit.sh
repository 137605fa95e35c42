#!/usr/bin/env bash
# Run a command that must fail for one stated reason:
#
#     expect_exit.sh STATUS PATTERN COMMAND [ARGS...]
#
# passes only when COMMAND exits with STATUS and its combined stdout and
# stderr match the extended regex PATTERN.  A gate test that only wants
# "non-zero" (ctest WILL_FAIL) also passes when the command fails for an
# unrelated reason, such as a fixture it cannot read.
set -uo pipefail

want_status="${1:?usage: expect_exit.sh STATUS PATTERN COMMAND...}"
pattern="${2:?usage: expect_exit.sh STATUS PATTERN COMMAND...}"
shift 2

output="$("$@" 2>&1)"
status=$?
printf '%s\n' "$output"
if [ "$status" -ne "$want_status" ]; then
    echo "expect_exit: exit status $status, expected $want_status" >&2
    exit 1
fi
if ! grep -Eq -- "$pattern" <<< "$output"; then
    echo "expect_exit: output does not match /$pattern/" >&2
    exit 1
fi

#!/usr/bin/env bash
# Runs the installed `liepoisson` console script on every shipped config,
# under every subcommand and --seed 0 and 7.  Fails on an unexpected exit
# code (0, or 2 for the three pairs a system does not support), on stderr
# after an exit 0, and on a traceback or warning.  Run from the repo root.
set -u
err=$(mktemp)
for seed in 0 7; do
  for cfg in configs/*.json; do
    for cmd in verify simulate bracket-table; do
      case "$(basename "$cfg") $cmd" in
        "rigidbody.json bracket-table" | "sequence.json simulate" | "sequence.json bracket-table") want=2 ;;
        *) want=0 ;;
      esac
      code=0
      liepoisson "$cmd" "$cfg" --seed "$seed" > /dev/null 2> "$err" || code=$?
      if [ "$code" -ne "$want" ]; then
        echo "liepoisson $cmd $cfg --seed $seed: exit $code, expected $want"
        exit 1
      fi
      if [ "$code" -eq 0 ] && [ -s "$err" ]; then
        echo "liepoisson $cmd $cfg --seed $seed: exit 0 with stderr:"
        cat "$err"
        exit 1
      fi
      if grep -Eq "Traceback|Warning" "$err"; then
        echo "liepoisson $cmd $cfg --seed $seed: a traceback or warning on stderr:"
        cat "$err"
        exit 1
      fi
    done
  done
done

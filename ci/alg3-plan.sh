#!/usr/bin/env bash
# Algorithm 3's output on three EC2 problems: the default 7 regions and two
# subsets. Each block is what `saturn-cli plan` prints: the configuration
# the generator picks, its weighted mismatch and the per-pair metadata vs
# bulk table. CI diffs this against the checked-in ci/alg3-plan.txt, so a
# change to the solver that moves any chosen tree, placement, delay or
# score fails; ci/regen.sh rewrites the file.
#
#   ci/alg3-plan.sh > ci/alg3-plan.txt
set -euo pipefail
cd "$(dirname "$0")/.."
for regions in "" "NV I S" "NC O F T S"; do
  echo "== saturn-cli plan ${regions:-(default 7 regions)}"
  # shellcheck disable=SC2086 # the region list splits into arguments
  dune exec bin/saturn_cli.exe -- plan $regions
  echo
done

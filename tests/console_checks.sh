#!/usr/bin/env bash
# End-to-end checks of the `pseudopoly` console script: reports, exit codes,
# error lines and pinned digests of fixed calls.  Runs in the directory it is
# started in, writing its files there, against whatever `pseudopoly` is first
# on PATH; with -e and pipefail, a nonzero exit anywhere in a pipe fails it.
#
#   cd "$(mktemp -d)" && bash /path/to/tests/console_checks.sh
set -eo pipefail
pseudopoly gen primary --n-max 30 --seed 1 > primary.txt
pseudopoly audit --input primary.txt > primary.json
# the same prefix with CRLF breaks, blank lines and padded terms
# gives the same report bytes
awk 'BEGIN { printf "\r\n" } { printf "  %s\t\r\n", $0 } NR % 7 == 0 { printf " \r\n\r\n" }' primary.txt > padded.txt
pseudopoly audit --input padded.txt > padded.json
cmp primary.json padded.json
# a malformed line is named by its number, with nothing on stdout
code=0
printf '1\r\n2\r\n+3\r\n' | pseudopoly audit > bad.json 2> bad.err || code=$?
test "$code" = 2
test ! -s bad.json
grep -q "^error: line 3 is not a decimal integer: '+3'" bad.err
# leading blank lines are counted: the fifth line is named
code=0
printf '\n\n1\n2\n+3\n' | pseudopoly audit > blank.json 2> blank.err || code=$?
test "$code" = 2
test ! -s blank.json
grep -q "^error: line 5 is not a decimal integer: '+3'" blank.err
# 2^n for n < 20 is detected; with its last term moved by 1 it is
# not, since no Hankel minor of the 20 terms reads that term
awk 'BEGIN { for (n = 0; n < 20; n++) print 2^n }' > pow2.txt
awk 'BEGIN { for (n = 0; n < 20; n++) print 2^n + (n == 19) }' > pow2-moved.txt
pseudopoly rational detect --input pow2.txt > pow2.json
pseudopoly rational detect --input pow2-moved.txt > pow2-moved.json
grep -q '"rational": true' pow2.json
grep -q '"rational": false' pow2-moved.json
# a Hall prefix is congruent: every Hankel row divides, and each
# valuation is n - p plus that of the row's quotient
pseudopoly gen hall --n-max 40 --seed 3 > hall.txt
pseudopoly audit --input hall.txt > hall.json
grep -q '"verdict": "undetermined"' hall.json
pseudopoly hankel verify-divisibility --input hall.txt --format csv > hall-div.csv
test "$(grep -c ',true,' hall-div.csv)" = 20
# 40 seeded random terms break the congruences, and most of their
# rows do not divide, so their valuations are the determinant's
python -c 'import random; r = random.Random(40); print(*(r.randint(-10**6, 10**6) for _ in range(40)), sep="\n")' > random40.txt
code=0
pseudopoly audit --input random40.txt > random40.json || code=$?
test "$code" = 1
grep -q '"verdict": "congruence_violation"' random40.json
grep -q '"divisible": false' random40.json
# the CSV summary counts the violations that the JSON report lists
code=0
pseudopoly audit --input random40.txt --format csv > random40.csv || code=$?
test "$code" = 1
python -c 'import csv, json, sys; row = next(csv.DictReader(open(sys.argv[1]))); listed = json.load(open(sys.argv[2]))["congruence"]["violations"]; assert listed and int(row["congruence_violations"]) == len(listed), (row["congruence_violations"], len(listed))' random40.csv random40.json
code=0
pseudopoly hankel verify-divisibility --input random40.txt --format csv > random40-div.csv || code=$?
test "$code" = 1
# a row is divisible exactly when its required divisor divides its
# determinant
for csv in hall-div.csv random40-div.csv; do
  python -c 'import csv, sys; rows = list(csv.DictReader(open(sys.argv[1]))); assert rows and all((r["divisible"] == "true") == (int(r["det"]) % int(r["required_divisor"]) == 0) for r in rows), sys.argv[1]' "$csv"
done
pseudopoly gen poly --coeffs '["2", "-7", "0", "1"]' --n-max 40 | pseudopoly audit > cubic.json
grep -q '"degree": 3' cubic.json
# the 40-term cubic preserves every congruence: N - m pairs per
# modulus m, over the primes below 40 and over every m < 40
pseudopoly gen poly --coeffs '["2", "-7", "0", "1"]' --n-max 40 > cubic.txt
pseudopoly check congruences --input cubic.txt --mode primary --format json > cubic-primary.json
pseudopoly check congruences --input cubic.txt --mode full --format json > cubic-full.json
grep -q '"checked_pairs": 283' cubic-primary.json
grep -q '"checked_pairs": 780' cubic-full.json
# 2^n breaks the primary congruences; its violations are listed
# n-major: (0, 2) and (0, 3) come first
code=0
pseudopoly check congruences --input pow2.txt --mode primary --format csv > pow2.csv || code=$?
test "$code" = 1
test "$(wc -l < pow2.csv)" = 67
test "$(sed -n 2,3p pow2.csv)" = "$(printf '0,2,0,1\n0,3,2,1')"
# 160 seeded random terms (the golden corpus's random-160 input)
# break 11,965 congruences; the JSON and CSV reports of them keep
# the golden digests
python -c 'import random; r = random.Random(160); print(*(r.randint(-10**6, 10**6) for _ in range(160)), sep="\n")' > random160.txt
code=0
pseudopoly check congruences --input random160.txt --mode full --format json > random160.json || code=$?
test "$code" = 1
code=0
pseudopoly check congruences --input random160.txt --mode full --format csv > random160.csv || code=$?
test "$code" = 1
echo "5f8fba2bd4fc39322cba2395d67843a8a976ac5c44f0da8656ff3a61928a5cfe  random160.json" | sha256sum -c -
echo "ac0bf30ddbf2bfe6bd15e2edbf075051d534738b2c3ea6262c7c560817fd0bc1  random160.csv" | sha256sum -c -
# the binomial transform keeps the Hankel matrix up to conjugation
pseudopoly gen primary --n-max 64 | pseudopoly hankel verify-invariance > inv.json
grep -q '"passed": true' inv.json
# 500 terms of 4,299 digits are checked at full order
python -c 'import random; r = random.Random(7); print(*(r.randrange(10**4298, 10**4299) for _ in range(500)), sep="\n")' > wide.txt
pseudopoly hankel verify-invariance --input wide.txt > wide.json
grep -q '"checked_max": 250' wide.json
# 1/(1 + 10^600 x^2) has poles +-10^-300 i, which underflow to 0:
# a numeric failure, with nothing on stdout
python -c 'print(*(0 if k % 2 else (-1) ** (k // 2) * 10 ** (300 * k) for k in range(12)), sep="\n")' > underflow.txt
code=0
pseudopoly audit --input underflow.txt > underflow.json 2> underflow.err || code=$?
test "$code" = 1
test ! -s underflow.json
grep -q "^numeric failure:" underflow.err

#!/usr/bin/env bash
# Byte-identity check for the command-line artifacts. Builds every
# command under cmd/ once, runs each command line listed in
# scripts/artifacts.txt in a fresh temporary directory, and compares a
# sha256 digest of everything the command produced with the digest
# recorded on its line:
#
#   bash scripts/artifacts.sh            # check; exits 1 on any mismatch
#   bash scripts/artifacts.sh --update   # rewrite the recorded digests
#
# A line of artifacts.txt reads "<sha256>  <command line>"; blank lines
# and lines starting with # are kept as they are, and a new command line
# may be added without a digest for --update to fill in. The digest
# covers the exit code, stdout, stderr, and then every file the command
# wrote, in name order, each part preceded by its name and length. A
# command line runs under bash with the built commands first on PATH and
# stdin from /dev/null. The repository is reachable from it as ./src (a
# symlink the digest skips), so inputs are named by relative path and no
# output mentions where the checkout lives.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
list="$root/scripts/artifacts.txt"
update=0
case "${1:-}" in
"") ;;
--update) update=1 ;;
*)
	echo "usage: bash scripts/artifacts.sh [--update]" >&2
	exit 2
	;;
esac

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -C "$root" -o "$work/bin/" ./cmd/...

# digest runs one command line in a fresh directory and prints the
# sha256 of its exit code, stdout, stderr and written files.
digest() {
	local run="$work/run" code=0 f s
	rm -rf "$run"
	mkdir "$run"
	ln -s "$root" "$run/src"
	(cd "$run" && PATH="$work/bin:$PATH" bash -c "$1" </dev/null >"$work/stdout" 2>"$work/stderr") || code=$?
	{
		printf 'exit %d\n' "$code"
		for s in stdout stderr; do
			printf '%s %d\n' "$s" "$(wc -c <"$work/$s")"
			cat "$work/$s"
		done
		(cd "$run" && find . -type f | LC_ALL=C sort) | while IFS= read -r f; do
			printf 'file %s %d\n' "$f" "$(wc -c <"$run/$f")"
			cat "$run/$f"
		done
	} | sha256sum | cut -d' ' -f1
}

lines=()
first=""
ran=0
mismatches=0
start=$SECONDS
while IFS= read -r line || [ -n "$line" ]; do
	case "$line" in
	"" | "#"*)
		lines+=("$line")
		continue
		;;
	esac
	want=${line%%  *}
	cmd=${line#*  }
	got=$(digest "$cmd")
	ran=$((ran + 1))
	if [ "$got" != "$want" ]; then
		mismatches=$((mismatches + 1))
		if [ "$update" = 1 ]; then
			echo "updated: $cmd"
		else
			echo "MISMATCH: $cmd" >&2
			first=${first:-$cmd}
		fi
	fi
	lines+=("$got  $cmd")
done <"$list"

if [ "$update" = 1 ]; then
	printf '%s\n' "${lines[@]}" >"$list"
	echo "artifacts: $ran commands, $mismatches digests rewritten ($((SECONDS - start)) s)"
	exit 0
fi
if [ -n "$first" ]; then
	echo "artifacts: $mismatches of $ran commands differ; first: $first" >&2
	exit 1
fi
echo "artifacts: $ran commands byte-identical ($((SECONDS - start)) s)"

# Non-test lines of Rust sources: `awk -f scripts/loc.awk pass=1 FILES pass=2 FILES`
# (the same files twice). A `#[cfg(test)]` attribute skips the item it
# decorates — to the matching brace, or to the `;` of a braceless item such
# as `mod x;` — and a module file whose `mod` line carries the attribute
# counts as zero, with everything under its directory. Braces inside string
# and character literals are ignored; raw strings that span lines are not.

function parent_dir(path) { sub(/\/[^\/]*$/, "", path); return path }

FNR == 1 {
    skipping = 0
    base = FILENAME; sub(/.*\//, "", base)
    # Where this file's child modules live.
    home = (base == "mod.rs" || base == "lib.rs" || base == "main.rs") \
        ? parent_dir(FILENAME) : substr(FILENAME, 1, length(FILENAME) - 3)
    gated_file = 0
    if (pass == 2)
        for (g in gated)
            if (FILENAME == g ".rs" || index(FILENAME, g "/") == 1) gated_file = 1
}

gated_file { next }

/^[[:space:]]*#\[cfg\(test\)\]/ { skipping = 1; opened = 0; depth = 0; next }

skipping {
    line = $0
    if (!opened && line ~ /^[[:space:]]*(\/\/|#\[)/) next
    if (!opened && pass == 1 && match(line, /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/)) {
        name = line; sub(/;.*/, "", name); sub(/.*mod /, "", name)
        gated[home "/" name] = 1
    }
    gsub(/"([^"\\]|\\.)*"/, "", line)
    gsub(/'([^'\\]|\\.)'/, "", line)
    for (i = 1; i <= length(line); i++) {
        c = substr(line, i, 1)
        if (c == "{") { depth++; opened = 1 } else if (c == "}") depth--
    }
    if ((opened && depth <= 0) || (!opened && line ~ /;[[:space:]]*$/)) skipping = 0
    next
}

pass == 2 { n++ }

END { print n + 0 }

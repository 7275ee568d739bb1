/* Minimal external "implementation under test" for validator tests.
 *
 * Implements the same extractors as the library (convention
 * T[i,j] = y[(i-j) mod q]) with optional deliberate bugs, so the heavy
 * validator acceptance tests can spawn one real process per case
 * cheaply.  Cross-checked against the library before use.
 *
 * usage: thirdparty [--hex] TYPE N M MUTATION SEED INPUT
 *   --hex     SEED, INPUT and the output in the package hex encoding:
 *             lowercase, MSB first, left-padded with zero bits
 *   TYPE      toeplitz | modified-toeplitz
 *   N, M      1 <= M <= N <= 4096 (M < N for modified-toeplitz)
 *   MUTATION  none | drop-last-input-bit | reverse-seed | flip-entry:I,J
 *             (0 <= I < M, 0 <= J < N)
 *   SEED, INPUT  '0'/'1' strings, unless --hex
 * A bad TYPE, N, M or MUTATION exits 2 with the usage line; a SEED or
 * INPUT of the wrong length or alphabet exits 1.
 */
#include <ctype.h>
#include <errno.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

static const char HEX[] = "0123456789abcdef";

static int parse_bits(const char *s, int expect, int *out) {
    int i;
    for (i = 0; s[i]; i++) {
        if (s[i] != '0' && s[i] != '1') return -1;
        if (i < expect) out[i] = s[i] - '0';
    }
    return i == expect ? 0 : -1;
}

/* hex_decode: exactly (expect + pad) / 4 digits, the pad leading bits zero */
static int parse_hex(const char *s, int expect, int *out) {
    int pad = (8 - expect % 8) % 8;
    if (strlen(s) != (size_t)(expect + pad) / 4) return -1;
    for (int k = 0; k < expect + pad; k++) {
        char c = s[k / 4];
        if (!isxdigit((unsigned char)c)) return -1; /* either case, as hex_decode */
        int bit = (c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10) >> (3 - k % 4) & 1;
        if (k < pad) {
            if (bit) return -1;
        } else {
            out[k - pad] = bit;
        }
    }
    return 0;
}

/* A decimal in [lo, hi] ending at `stop`; returns a pointer to the stop or NULL. */
static const char *parse_num(const char *s, char stop, long lo, long hi, int *out) {
    char *end;
    if (*s < '0' || *s > '9') return NULL; /* strtol would skip spaces and signs */
    errno = 0;
    long v = strtol(s, &end, 10);
    if (errno || *end != stop || v < lo || v > hi) return NULL;
    *out = (int)v;
    return end;
}

static int usage(const char *prog) {
    fprintf(stderr, "usage: %s [--hex] TYPE N M MUTATION SEED INPUT\n", prog);
    return 2;
}

int main(int argc, char **argv) {
    const char *prog = argv[0];
    int hex = argc == 8 && strcmp(argv[1], "--hex") == 0;
    argv += hex;
    if (argc - hex != 7) return usage(prog);
    const char *type = argv[1];
    const char *mutation = argv[4];
    int modified = strcmp(type, "modified-toeplitz") == 0;
    if (!modified && strcmp(type, "toeplitz") != 0) return usage(prog);
    int n, m;
    if (!parse_num(argv[2], '\0', 1, 4096, &n) || !parse_num(argv[3], '\0', 1, n - modified, &m))
        return usage(prog);

    int seed_len = modified ? n - 1 : n + m - 1;
    int *y = malloc(sizeof(int) * seed_len);
    int *x = malloc(sizeof(int) * n);
    int (*parse)(const char *, int, int *) = hex ? parse_hex : parse_bits;
    if (parse(argv[5], seed_len, y) || parse(argv[6], n, x)) {
        fprintf(stderr, "bad seed or input\n");
        return 1;
    }

    int flip_i = -1, flip_j = -1;
    if (strcmp(mutation, "drop-last-input-bit") == 0) {
        x[n - 1] = 0;
    } else if (strcmp(mutation, "reverse-seed") == 0) {
        for (int i = 0; i < seed_len / 2; i++) {
            int t = y[i];
            y[i] = y[seed_len - 1 - i];
            y[seed_len - 1 - i] = t;
        }
    } else if (strncmp(mutation, "flip-entry:", 11) == 0) {
        const char *j = parse_num(mutation + 11, ',', 0, m - 1, &flip_i);
        if (!j || !parse_num(j + 1, '\0', 0, n - 1, &flip_j)) return usage(prog);
    } else if (strcmp(mutation, "none") != 0) {
        fprintf(stderr, "unknown mutation %s\n", mutation);
        return usage(prog);
    }

    int q = seed_len;
    int body = modified ? n - m : n;
    /* hex: k counts bits of the padded output, whose leading pad bits are 0 */
    int k = hex ? (8 - m % 8) % 8 : 0, nibble = 0;
    if (k >= 4) putchar('0');
    for (int i = 0; i < m; i++) {
        int acc = 0;
        for (int j = 0; j < body; j++)
            if (x[j]) acc ^= y[((i - j) % q + q) % q];
        if (modified) acc ^= x[body + i];
        if (i == flip_i) acc ^= x[flip_j];
        if (!hex) {
            putchar('0' + acc);
        } else {
            nibble = nibble << 1 | acc;
            if (++k % 4 == 0) {
                putchar(HEX[nibble]);
                nibble = 0;
            }
        }
    }
    putchar('\n');
    free(y);
    free(x);
    return 0;
}

/* Generated shared-memory implementation of 'broadcast_delayed'.
 * Schedule: (4n1 n0)n2(5n4)(4n5)(3n3)(4n6)
 * Pool size: 107 words.
 */

#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>

typedef long token_t;

#define TOKEN(e, s) ((token_t)(e) * 1000003L + (s))
static long fired = 0;

static token_t memory[107];

#define BUF_N1_N0 (memory + 68)  /* 1 words, lifetime n1->n0: size=1 start=0 dur=2 periods=(2x4) */
#define BUF_N1_N4 (memory + 44)  /* 20 words, lifetime n1->n4: size=20 [0, 10) */
#define BUF_N4_N5 (memory + 87)  /* 20 words, lifetime n4->n5: size=20 [9, 11) */
#define BUF_N0_N3 (memory + 32)  /* 12 words, lifetime n0->n3: size=12 [1, 12) */
#define BUF_N1_N2 (memory + 64)  /* 4 words, lifetime n1->n2: size=4 [0, 9) */
#define BUF_N2_N6 (memory + 68)  /* 4 words, lifetime n2->n6: size=4 [8, 13) */
#define BUF_N5_N3 (memory + 44)  /* 12 words, lifetime n5->n3: size=12 [10, 12) */
#define BUF_N4_N3 (memory + 72)  /* 15 words, lifetime n4->n3: size=15 [9, 12) */
#define BUF_N5__BC0 (memory + 0)  /* 24 words, lifetime n5=>bc0: size=24 [0, 13) */
#define BUF_N1__BC1 (memory + 24)  /* 8 words, lifetime n1=>bc1: size=8 [0, 13) */

static size_t wr_n1_n0 = 0;
static size_t rd_n1_n0 = 0;
static size_t wr_n1_n4 = 0;
static size_t rd_n1_n4 = 0;
static size_t wr_n4_n5 = 0;
static size_t rd_n4_n5 = 0;
static size_t wr_n0_n3 = 0;
static size_t rd_n0_n3 = 0;
static size_t wr_n1_n2 = 0;
static size_t rd_n1_n2 = 0;
static size_t wr_n2_n6 = 0;
static size_t rd_n2_n6 = 0;
static size_t wr_n5_n3 = 0;
static size_t rd_n5_n3 = 0;
static size_t wr_n4_n3 = 0;
static size_t rd_n4_n3 = 0;
static size_t wr_bc_bc0 = 0;
static size_t rd_n5_n3_1 = 0;
static size_t rd_n5_n6 = 0;
static size_t wr_bc_bc1 = 0;
static size_t rd_n1_n0_1 = 0;
static size_t rd_n1_n5 = 0;
static size_t rd_n1_n6 = 0;
static long produced_n1_n0 = 0;
static long consumed_n1_n0 = 0;
static long produced_n1_n4 = 0;
static long consumed_n1_n4 = 0;
static long produced_n4_n5 = 0;
static long consumed_n4_n5 = 0;
static long produced_n0_n3 = 0;
static long consumed_n0_n3 = 0;
static long produced_n1_n2 = 0;
static long consumed_n1_n2 = 0;
static long produced_n2_n6 = 0;
static long consumed_n2_n6 = 0;
static long produced_n5_n3 = 0;
static long consumed_n5_n3 = 0;
static long produced_n4_n3 = 0;
static long consumed_n4_n3 = 0;
static long produced_bc_bc0 = 0;
static long consumed_n5_n3_1 = 0;
static long consumed_n5_n6 = 0;
static long produced_bc_bc1 = 0;
static long consumed_n1_n0_1 = 0;
static long consumed_n1_n5 = 0;
static long consumed_n1_n6 = 0;

static void fire_n0(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_N1_N0[rd_n1_n0] != TOKEN(0, consumed_n1_n0++)) {
            fprintf(stderr, "SELFCHECK FAIL: n0 reading n1->n0 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n1_n0++;
    }
    for (int w = 0; w < 2; ++w) {
        if (BUF_N1__BC1[rd_n1_n0_1] != TOKEN(9, consumed_n1_n0_1++)) {
            fprintf(stderr, "SELFCHECK FAIL: n0 reading n1->n0 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n1_n0_1++;
    }
    for (int w = 0; w < 3; ++w) {
        BUF_N0_N3[wr_n0_n3++] = TOKEN(3, produced_n0_n3++);
    }
}

static void fire_n1(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        BUF_N1_N0[wr_n1_n0++] = TOKEN(0, produced_n1_n0++);
    }
    for (int w = 0; w < 5; ++w) {
        BUF_N1_N4[wr_n1_n4++] = TOKEN(1, produced_n1_n4++);
    }
    for (int w = 0; w < 1; ++w) {
        BUF_N1_N2[wr_n1_n2++] = TOKEN(4, produced_n1_n2++);
    }
    for (int w = 0; w < 2; ++w) {
        BUF_N1__BC1[wr_bc_bc1++] = TOKEN(9, produced_bc_bc1++);
    }
}

static void fire_n2(void)
{
    fired++;
    for (int w = 0; w < 4; ++w) {
        if (BUF_N1_N2[rd_n1_n2] != TOKEN(4, consumed_n1_n2++)) {
            fprintf(stderr, "SELFCHECK FAIL: n2 reading n1->n2 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n1_n2++;
    }
    for (int w = 0; w < 4; ++w) {
        BUF_N2_N6[wr_n2_n6++] = TOKEN(5, produced_n2_n6++);
    }
}

static void fire_n3(void)
{
    fired++;
    for (int w = 0; w < 4; ++w) {
        if (BUF_N0_N3[rd_n0_n3] != TOKEN(3, consumed_n0_n3++)) {
            fprintf(stderr, "SELFCHECK FAIL: n3 reading n0->n3 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n0_n3++;
    }
    for (int w = 0; w < 4; ++w) {
        if (BUF_N5_N3[rd_n5_n3] != TOKEN(6, consumed_n5_n3++)) {
            fprintf(stderr, "SELFCHECK FAIL: n3 reading n5->n3 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n5_n3++;
    }
    for (int w = 0; w < 5; ++w) {
        if (BUF_N4_N3[rd_n4_n3] != TOKEN(7, consumed_n4_n3++)) {
            fprintf(stderr, "SELFCHECK FAIL: n3 reading n4->n3 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n4_n3++;
    }
    for (int w = 0; w < 4; ++w) {
        if (rd_n5_n3_1 >= 24) rd_n5_n3_1 = 0;
        if (BUF_N5__BC0[rd_n5_n3_1] != TOKEN(8, consumed_n5_n3_1++)) {
            fprintf(stderr, "SELFCHECK FAIL: n3 reading n5->n3 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n5_n3_1++;
    }
}

static void fire_n4(void)
{
    fired++;
    for (int w = 0; w < 4; ++w) {
        if (BUF_N1_N4[rd_n1_n4] != TOKEN(1, consumed_n1_n4++)) {
            fprintf(stderr, "SELFCHECK FAIL: n4 reading n1->n4 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n1_n4++;
    }
    for (int w = 0; w < 4; ++w) {
        BUF_N4_N5[wr_n4_n5++] = TOKEN(2, produced_n4_n5++);
    }
    for (int w = 0; w < 3; ++w) {
        BUF_N4_N3[wr_n4_n3++] = TOKEN(7, produced_n4_n3++);
    }
}

static void fire_n5(void)
{
    fired++;
    for (int w = 0; w < 5; ++w) {
        if (BUF_N4_N5[rd_n4_n5] != TOKEN(2, consumed_n4_n5++)) {
            fprintf(stderr, "SELFCHECK FAIL: n5 reading n4->n5 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n4_n5++;
    }
    for (int w = 0; w < 2; ++w) {
        if (BUF_N1__BC1[rd_n1_n5] != TOKEN(9, consumed_n1_n5++)) {
            fprintf(stderr, "SELFCHECK FAIL: n5 reading n1->n5 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n1_n5++;
    }
    for (int w = 0; w < 3; ++w) {
        BUF_N5_N3[wr_n5_n3++] = TOKEN(6, produced_n5_n3++);
    }
    for (int w = 0; w < 3; ++w) {
        if (wr_bc_bc0 >= 24) wr_bc_bc0 = 0;
        BUF_N5__BC0[wr_bc_bc0++] = TOKEN(8, produced_bc_bc0++);
    }
}

static void fire_n6(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_N2_N6[rd_n2_n6] != TOKEN(5, consumed_n2_n6++)) {
            fprintf(stderr, "SELFCHECK FAIL: n6 reading n2->n6 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n2_n6++;
    }
    for (int w = 0; w < 3; ++w) {
        if (rd_n5_n6 >= 24) rd_n5_n6 = 0;
        if (BUF_N5__BC0[rd_n5_n6] != TOKEN(8, consumed_n5_n6++)) {
            fprintf(stderr, "SELFCHECK FAIL: n6 reading n5->n6 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n5_n6++;
    }
    for (int w = 0; w < 2; ++w) {
        if (BUF_N1__BC1[rd_n1_n6] != TOKEN(9, consumed_n1_n6++)) {
            fprintf(stderr, "SELFCHECK FAIL: n6 reading n1->n6 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n1_n6++;
    }
}


void run_one_period(void)
{
    /* initial tokens (delays) are assumed to be
     * preloaded by init_delays() below. */
    {
        wr_n1_n4 = 0;
        rd_n1_n4 = 0;
        wr_n0_n3 = 0;
        rd_n0_n3 = 0;
        wr_n1_n2 = 0;
        rd_n1_n2 = 0;
        wr_bc_bc1 = 0;
        rd_n1_n0_1 = 0;
        rd_n1_n5 = 0;
        rd_n1_n6 = 0;
        for (int i2 = 0; i2 < 4; ++i2) {
            wr_n1_n0 = 0;
            rd_n1_n0 = 0;
            {
                fire_n1();
            }
            {
                fire_n0();
            }
        }
        {
            wr_n2_n6 = 0;
            rd_n2_n6 = 0;
            {
                fire_n2();
            }
            {
                wr_n4_n5 = 0;
                rd_n4_n5 = 0;
                wr_n4_n3 = 0;
                rd_n4_n3 = 0;
                for (int r = 0; r < 5; ++r) {
                    fire_n4();
                }
                {
                    wr_n5_n3 = 0;
                    rd_n5_n3 = 0;
                    for (int r = 0; r < 4; ++r) {
                        fire_n5();
                    }
                    {
                        for (int r = 0; r < 3; ++r) {
                            fire_n3();
                        }
                        for (int r = 0; r < 4; ++r) {
                            fire_n6();
                        }
                    }
                }
            }
        }
    }
}

void init_delays(void)
{
    for (int w = 0; w < 12; ++w) {
        BUF_N5__BC0[w % 24] = TOKEN(8, w);
    }
    produced_bc_bc0 = 12;
    wr_bc_bc0 = 12 % 24;
}

int main(void)
{
    init_delays();
    for (int p = 0; p < 2; ++p) {
        run_one_period();
    }
    printf("SELFCHECK OK %ld firings\n", fired);
    return 0;
}

/* Generated shared-memory implementation of 'broadcast_plain'.
 * Schedule: (5n4)(4n0)n2(4n1)(3n3)(4n5)
 * Pool size: 135 words.
 */

#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>

typedef long token_t;

#define TOKEN(e, s) ((token_t)(e) * 1000003L + (s))
static long fired = 0;

static token_t memory[135];

#define BUF_N4_N0 (memory + 95)  /* 20 words, lifetime n4->n0: size=20 [0, 2) */
#define BUF_N4_N1 (memory + 75)  /* 20 words, lifetime n4->n1: size=20 [0, 4) */
#define BUF_N1_N5 (memory + 107)  /* 4 words, lifetime n1->n5: size=4 [3, 6) */
#define BUF_N0_N2 (memory + 115)  /* 4 words, lifetime n0->n2: size=4 [1, 3) */
#define BUF_N4_N3 (memory + 60)  /* 15 words, lifetime n4->n3: size=15 [0, 5) */
#define BUF_N1_N3 (memory + 111)  /* 24 words, lifetime n1->n3: size=24 [3, 5) */
#define BUF_N4__BC0 (memory + 0)  /* 60 words, lifetime n4=>bc0: size=60 [0, 6) */
#define BUF_N2__BC1 (memory + 95)  /* 12 words, lifetime n2=>bc1: size=12 [2, 6) */

static size_t wr_n4_n0 = 0;
static size_t rd_n4_n0 = 0;
static size_t wr_n4_n1 = 0;
static size_t rd_n4_n1 = 0;
static size_t wr_n1_n5 = 0;
static size_t rd_n1_n5 = 0;
static size_t wr_n0_n2 = 0;
static size_t rd_n0_n2 = 0;
static size_t wr_n4_n3 = 0;
static size_t rd_n4_n3 = 0;
static size_t wr_n1_n3 = 0;
static size_t rd_n1_n3 = 0;
static size_t wr_bc_bc0 = 0;
static size_t rd_n4_n2 = 0;
static size_t rd_n4_n3_1 = 0;
static size_t rd_n4_n5 = 0;
static size_t wr_bc_bc1 = 0;
static size_t rd_n2_n3 = 0;
static size_t rd_n2_n5 = 0;
static long produced_n4_n0 = 0;
static long consumed_n4_n0 = 0;
static long produced_n4_n1 = 0;
static long consumed_n4_n1 = 0;
static long produced_n1_n5 = 0;
static long consumed_n1_n5 = 0;
static long produced_n0_n2 = 0;
static long consumed_n0_n2 = 0;
static long produced_n4_n3 = 0;
static long consumed_n4_n3 = 0;
static long produced_n1_n3 = 0;
static long consumed_n1_n3 = 0;
static long produced_bc_bc0 = 0;
static long consumed_n4_n2 = 0;
static long consumed_n4_n3_1 = 0;
static long consumed_n4_n5 = 0;
static long produced_bc_bc1 = 0;
static long consumed_n2_n3 = 0;
static long consumed_n2_n5 = 0;

static void fire_n0(void)
{
    fired++;
    for (int w = 0; w < 5; ++w) {
        if (BUF_N4_N0[rd_n4_n0] != TOKEN(0, consumed_n4_n0++)) {
            fprintf(stderr, "SELFCHECK FAIL: n0 reading n4->n0 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n4_n0++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_N0_N2[wr_n0_n2++] = TOKEN(3, produced_n0_n2++);
    }
}

static void fire_n1(void)
{
    fired++;
    for (int w = 0; w < 5; ++w) {
        if (BUF_N4_N1[rd_n4_n1] != TOKEN(1, consumed_n4_n1++)) {
            fprintf(stderr, "SELFCHECK FAIL: n1 reading n4->n1 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n4_n1++;
    }
    for (int w = 0; w < 1; ++w) {
        BUF_N1_N5[wr_n1_n5++] = TOKEN(2, produced_n1_n5++);
    }
    for (int w = 0; w < 6; ++w) {
        BUF_N1_N3[wr_n1_n3++] = TOKEN(5, produced_n1_n3++);
    }
}

static void fire_n2(void)
{
    fired++;
    for (int w = 0; w < 4; ++w) {
        if (BUF_N0_N2[rd_n0_n2] != TOKEN(3, consumed_n0_n2++)) {
            fprintf(stderr, "SELFCHECK FAIL: n2 reading n0->n2 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n0_n2++;
    }
    for (int w = 0; w < 60; ++w) {
        if (BUF_N4__BC0[rd_n4_n2] != TOKEN(6, consumed_n4_n2++)) {
            fprintf(stderr, "SELFCHECK FAIL: n2 reading n4->n2 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n4_n2++;
    }
    for (int w = 0; w < 12; ++w) {
        BUF_N2__BC1[wr_bc_bc1++] = TOKEN(7, produced_bc_bc1++);
    }
}

static void fire_n3(void)
{
    fired++;
    for (int w = 0; w < 5; ++w) {
        if (BUF_N4_N3[rd_n4_n3] != TOKEN(4, consumed_n4_n3++)) {
            fprintf(stderr, "SELFCHECK FAIL: n3 reading n4->n3 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n4_n3++;
    }
    for (int w = 0; w < 8; ++w) {
        if (BUF_N1_N3[rd_n1_n3] != TOKEN(5, consumed_n1_n3++)) {
            fprintf(stderr, "SELFCHECK FAIL: n3 reading n1->n3 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n1_n3++;
    }
    for (int w = 0; w < 20; ++w) {
        if (BUF_N4__BC0[rd_n4_n3_1] != TOKEN(6, consumed_n4_n3_1++)) {
            fprintf(stderr, "SELFCHECK FAIL: n3 reading n4->n3 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n4_n3_1++;
    }
    for (int w = 0; w < 4; ++w) {
        if (BUF_N2__BC1[rd_n2_n3] != TOKEN(7, consumed_n2_n3++)) {
            fprintf(stderr, "SELFCHECK FAIL: n3 reading n2->n3 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n2_n3++;
    }
}

static void fire_n4(void)
{
    fired++;
    for (int w = 0; w < 4; ++w) {
        BUF_N4_N0[wr_n4_n0++] = TOKEN(0, produced_n4_n0++);
    }
    for (int w = 0; w < 4; ++w) {
        BUF_N4_N1[wr_n4_n1++] = TOKEN(1, produced_n4_n1++);
    }
    for (int w = 0; w < 3; ++w) {
        BUF_N4_N3[wr_n4_n3++] = TOKEN(4, produced_n4_n3++);
    }
    for (int w = 0; w < 12; ++w) {
        BUF_N4__BC0[wr_bc_bc0++] = TOKEN(6, produced_bc_bc0++);
    }
}

static void fire_n5(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_N1_N5[rd_n1_n5] != TOKEN(2, consumed_n1_n5++)) {
            fprintf(stderr, "SELFCHECK FAIL: n5 reading n1->n5 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n1_n5++;
    }
    for (int w = 0; w < 15; ++w) {
        if (BUF_N4__BC0[rd_n4_n5] != TOKEN(6, consumed_n4_n5++)) {
            fprintf(stderr, "SELFCHECK FAIL: n5 reading n4->n5 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n4_n5++;
    }
    for (int w = 0; w < 3; ++w) {
        if (BUF_N2__BC1[rd_n2_n5] != TOKEN(7, consumed_n2_n5++)) {
            fprintf(stderr, "SELFCHECK FAIL: n5 reading n2->n5 word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_n2_n5++;
    }
}


void run_one_period(void)
{
    {
        wr_n4_n0 = 0;
        rd_n4_n0 = 0;
        wr_n4_n1 = 0;
        rd_n4_n1 = 0;
        wr_n4_n3 = 0;
        rd_n4_n3 = 0;
        wr_bc_bc0 = 0;
        rd_n4_n2 = 0;
        rd_n4_n3_1 = 0;
        rd_n4_n5 = 0;
        for (int r = 0; r < 5; ++r) {
            fire_n4();
        }
        {
            wr_n0_n2 = 0;
            rd_n0_n2 = 0;
            for (int r = 0; r < 4; ++r) {
                fire_n0();
            }
            {
                wr_bc_bc1 = 0;
                rd_n2_n3 = 0;
                rd_n2_n5 = 0;
                {
                    fire_n2();
                }
                {
                    wr_n1_n5 = 0;
                    rd_n1_n5 = 0;
                    wr_n1_n3 = 0;
                    rd_n1_n3 = 0;
                    for (int r = 0; r < 4; ++r) {
                        fire_n1();
                    }
                    {
                        for (int r = 0; r < 3; ++r) {
                            fire_n3();
                        }
                        for (int r = 0; r < 4; ++r) {
                            fire_n5();
                        }
                    }
                }
            }
        }
    }
}

void init_delays(void)
{
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

/* Generated shared-memory implementation of 'cd2dat'.
 * Schedule: (49(3A B)(2C))(4(7D)(8E(5F)))
 * Pool size: 257 words.
 */

#include <stddef.h>
#include <stdio.h>
#include <stdlib.h>

typedef long token_t;

#define TOKEN(e, s) ((token_t)(e) * 1000003L + (s))
static long fired = 0;

static token_t memory[257];

#define BUF_A_B (memory + 202)  /* 1 words, lifetime A->B: size=1 start=0 dur=2 periods=(2x3, 7x49) */
#define BUF_B_C (memory + 196)  /* 6 words, lifetime B->C: size=6 start=1 dur=6 periods=(7x49) */
#define BUF_C_D (memory + 0)  /* 196 words, lifetime C->D: size=196 [6, 395) */
#define BUF_D_E (memory + 196)  /* 56 words, lifetime D->E: size=56 start=343 dur=16 periods=(17x4) */
#define BUF_E_F (memory + 252)  /* 5 words, lifetime E->F: size=5 start=344 dur=2 periods=(2x8, 17x4) */

static size_t wr_A_B = 0;
static size_t rd_A_B = 0;
static size_t wr_B_C = 0;
static size_t rd_B_C = 0;
static size_t wr_C_D = 0;
static size_t rd_C_D = 0;
static size_t wr_D_E = 0;
static size_t rd_D_E = 0;
static size_t wr_E_F = 0;
static size_t rd_E_F = 0;
static long produced_A_B = 0;
static long consumed_A_B = 0;
static long produced_B_C = 0;
static long consumed_B_C = 0;
static long produced_C_D = 0;
static long consumed_C_D = 0;
static long produced_D_E = 0;
static long consumed_D_E = 0;
static long produced_E_F = 0;
static long consumed_E_F = 0;

static void fire_A(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        BUF_A_B[wr_A_B++] = TOKEN(0, produced_A_B++);
    }
}

static void fire_B(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_A_B[rd_A_B] != TOKEN(0, consumed_A_B++)) {
            fprintf(stderr, "SELFCHECK FAIL: B reading A->B word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_A_B++;
    }
    for (int w = 0; w < 2; ++w) {
        BUF_B_C[wr_B_C++] = TOKEN(1, produced_B_C++);
    }
}

static void fire_C(void)
{
    fired++;
    for (int w = 0; w < 3; ++w) {
        if (BUF_B_C[rd_B_C] != TOKEN(1, consumed_B_C++)) {
            fprintf(stderr, "SELFCHECK FAIL: C reading B->C word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_B_C++;
    }
    for (int w = 0; w < 2; ++w) {
        BUF_C_D[wr_C_D++] = TOKEN(2, produced_C_D++);
    }
}

static void fire_D(void)
{
    fired++;
    for (int w = 0; w < 7; ++w) {
        if (BUF_C_D[rd_C_D] != TOKEN(2, consumed_C_D++)) {
            fprintf(stderr, "SELFCHECK FAIL: D reading C->D word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_C_D++;
    }
    for (int w = 0; w < 8; ++w) {
        BUF_D_E[wr_D_E++] = TOKEN(3, produced_D_E++);
    }
}

static void fire_E(void)
{
    fired++;
    for (int w = 0; w < 7; ++w) {
        if (BUF_D_E[rd_D_E] != TOKEN(3, consumed_D_E++)) {
            fprintf(stderr, "SELFCHECK FAIL: E reading D->E word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_D_E++;
    }
    for (int w = 0; w < 5; ++w) {
        BUF_E_F[wr_E_F++] = TOKEN(4, produced_E_F++);
    }
}

static void fire_F(void)
{
    fired++;
    for (int w = 0; w < 1; ++w) {
        if (BUF_E_F[rd_E_F] != TOKEN(4, consumed_E_F++)) {
            fprintf(stderr, "SELFCHECK FAIL: F reading E->F word %d (firing %ld)\n", w, fired);
            exit(1);
        }
        rd_E_F++;
    }
}


void run_one_period(void)
{
    {
        wr_C_D = 0;
        rd_C_D = 0;
        for (int i2 = 0; i2 < 49; ++i2) {
            wr_B_C = 0;
            rd_B_C = 0;
            for (int i3 = 0; i3 < 3; ++i3) {
                wr_A_B = 0;
                rd_A_B = 0;
                {
                    fire_A();
                }
                {
                    fire_B();
                }
            }
            for (int r = 0; r < 2; ++r) {
                fire_C();
            }
        }
        for (int i2 = 0; i2 < 4; ++i2) {
            wr_D_E = 0;
            rd_D_E = 0;
            for (int r = 0; r < 7; ++r) {
                fire_D();
            }
            for (int i3 = 0; i3 < 8; ++i3) {
                wr_E_F = 0;
                rd_E_F = 0;
                {
                    fire_E();
                }
                for (int r = 0; r < 5; ++r) {
                    fire_F();
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

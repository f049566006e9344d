/* Generated shared-memory implementation of 'broadcast_plain'.
 * Schedule: (5n4)(4n0)n2(4n1)(3n3)(4n5)
 * Pool size: 135 words.
 */

#include <stddef.h>

typedef int token_t;

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

#define fire_n0(p0, p1) /* actor code block */
#define fire_n1(p0, p1, p2) /* actor code block */
#define fire_n2(p0, p1, p2) /* actor code block */
#define fire_n3(p0, p1, p2, p3) /* actor code block */
#define fire_n4(p0, p1, p2, p3) /* actor code block */
#define fire_n5(p0, p1, p2) /* actor code block */

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
            fire_n4(BUF_N4_N0 + wr_n4_n0, BUF_N4_N1 + wr_n4_n1, BUF_N4_N3 + wr_n4_n3, BUF_N4__BC0 + wr_bc_bc0);
            wr_n4_n0 += 4;
            wr_n4_n1 += 4;
            wr_n4_n3 += 3;
            wr_bc_bc0 += 12;
        }
        {
            wr_n0_n2 = 0;
            rd_n0_n2 = 0;
            for (int r = 0; r < 4; ++r) {
                fire_n0(BUF_N4_N0 + rd_n4_n0, BUF_N0_N2 + wr_n0_n2);
                rd_n4_n0 += 5;
                wr_n0_n2 += 1;
            }
            {
                wr_bc_bc1 = 0;
                rd_n2_n3 = 0;
                rd_n2_n5 = 0;
                {
                    fire_n2(BUF_N0_N2 + rd_n0_n2, BUF_N4__BC0 + rd_n4_n2, BUF_N2__BC1 + wr_bc_bc1);
                    rd_n0_n2 += 4;
                    rd_n4_n2 += 60;
                    wr_bc_bc1 += 12;
                }
                {
                    wr_n1_n5 = 0;
                    rd_n1_n5 = 0;
                    wr_n1_n3 = 0;
                    rd_n1_n3 = 0;
                    for (int r = 0; r < 4; ++r) {
                        fire_n1(BUF_N4_N1 + rd_n4_n1, BUF_N1_N5 + wr_n1_n5, BUF_N1_N3 + wr_n1_n3);
                        rd_n4_n1 += 5;
                        wr_n1_n5 += 1;
                        wr_n1_n3 += 6;
                    }
                    {
                        for (int r = 0; r < 3; ++r) {
                            fire_n3(BUF_N4_N3 + rd_n4_n3, BUF_N1_N3 + rd_n1_n3, BUF_N4__BC0 + rd_n4_n3_1, BUF_N2__BC1 + rd_n2_n3);
                            rd_n4_n3 += 5;
                            rd_n1_n3 += 8;
                            rd_n4_n3_1 += 20;
                            rd_n2_n3 += 4;
                        }
                        for (int r = 0; r < 4; ++r) {
                            fire_n5(BUF_N1_N5 + rd_n1_n5, BUF_N4__BC0 + rd_n4_n5, BUF_N2__BC1 + rd_n2_n5);
                            rd_n1_n5 += 1;
                            rd_n4_n5 += 15;
                            rd_n2_n5 += 3;
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
    for (;;) {
        run_one_period();
    }
    return 0;
}

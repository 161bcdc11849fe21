package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.recipedb.RecipeGen

class AuthenticitySpec extends SparkSpec {

  import spark.implicits._

  /** Tiny hand-checkable dataset: 2 cuisines, known memberships. Recipe 5
    * repeats z, which counts once; recipe 6 has no ingredients but counts
    * in N_A; cuisine B never uses y.
    */
  private lazy val tiny = Seq(
    (0L, "A", Seq("x", "y")),
    (1L, "A", Seq("x")),
    (2L, "A", Seq("y", "z")),
    (3L, "A", Seq("x")),
    (4L, "B", Seq("x")),
    (5L, "B", Seq("z", "z")),
    (6L, "A", Seq.empty[String]),
  ).toDF("id", "cuisine", "ingredients")

  private lazy val gen = RecipeGen.recipes(spark, 0.01).cache()

  /** The fingerprints' dense grid, in long format. */
  private def grid(recipes: DataFrame): DataFrame =
    Authenticity.fingerprints(spark, recipes).toDF(spark)

  test("prevalence on the tiny example matches hand computation") {
    val p = grid(tiny).collect()
      .map(r => (r.getString(0), r.getString(1)) -> r.getDouble(2)).toMap
    assert(p(("A", "x")) == 3.0 / 5) // the empty recipe counts in N_A
    assert(p(("A", "y")) == 2.0 / 5)
    assert(p(("A", "z")) == 1.0 / 5)
    assert(p(("B", "x")) == 1.0 / 2)
    assert(p(("B", "y")) == 0.0) // densified grid
    assert(p(("B", "z")) == 1.0 / 2) // the repeated z counts once
    assert(p.size == 6)
  }

  test("relative prevalence on the tiny example (K=2: p - other cuisine's P)") {
    val rel = grid(tiny).collect()
      .map(r => (r.getAs[String]("cuisine"), r.getAs[String]("item")) ->
        r.getAs[Double]("rel_prevalence")).toMap
    assert(math.abs(rel(("A", "x")) - (0.6 - 0.5)) < 1e-12)
    assert(math.abs(rel(("B", "x")) - (0.5 - 0.6)) < 1e-12)
    assert(math.abs(rel(("A", "y")) - 0.4) < 1e-12)
    assert(math.abs(rel(("B", "y")) + 0.4) < 1e-12)
  }

  test("prevalence is oracle-checked against DuckDB on generated data") {
    val exploded = gen.select($"id", $"cuisine", explode($"ingredients").as("item")).distinct()
    val got = grid(gen).select("cuisine", "item", "prevalence")
    Oracle.assertEquivalent(
      got,
      """
      WITH per_c AS (SELECT cuisine, count(*) AS n FROM recipes GROUP BY cuisine),
           pairs AS (SELECT cuisine, item, count(*) AS m FROM ex GROUP BY cuisine, item),
           grid AS (SELECT c.cuisine, i.item FROM (SELECT DISTINCT cuisine FROM recipes) c
                    CROSS JOIN (SELECT DISTINCT item FROM ex) i)
      SELECT g.cuisine AS cuisine, g.item AS item,
             CAST(coalesce(p.m, 0) AS DOUBLE) / per_c.n AS prevalence
      FROM grid g
      LEFT JOIN pairs p ON p.cuisine = g.cuisine AND p.item = g.item
      JOIN per_c ON per_c.cuisine = g.cuisine
      """,
      "recipes" -> gen.select("id", "cuisine"),
      "ex" -> exploded,
    )
  }

  test("relative prevalence sums to zero across cuisines for every item") {
    val rel = grid(gen)
    val sums = rel.groupBy("item").agg(sum("rel_prevalence").as("s"))
      .agg(max(abs(col("s"))).as("worst")).collect().head.getDouble(0)
    assert(sums < 1e-9, s"worst per-item sum: $sums")
  }

  test("relative prevalence is oracle-checked against DuckDB on the tiny example") {
    val got = grid(tiny).select("cuisine", "item", "rel_prevalence")
    val exploded = tiny.select($"id", $"cuisine", explode($"ingredients").as("item")).distinct()
    Oracle.assertEquivalent(
      got,
      """
      WITH per_c AS (SELECT cuisine, count(*) AS n FROM recipes GROUP BY cuisine),
           pairs AS (SELECT cuisine, item, count(*) AS m FROM ex GROUP BY cuisine, item),
           grid AS (SELECT c.cuisine, i.item FROM (SELECT DISTINCT cuisine FROM recipes) c
                    CROSS JOIN (SELECT DISTINCT item FROM ex) i),
           prev AS (
             SELECT g.cuisine, g.item,
                    CAST(coalesce(p.m, 0) AS DOUBLE) / per_c.n AS prevalence
             FROM grid g
             LEFT JOIN pairs p ON p.cuisine = g.cuisine AND p.item = g.item
             JOIN per_c ON per_c.cuisine = g.cuisine),
           sums AS (SELECT item, sum(prevalence) AS s, count(*) AS k FROM prev GROUP BY item)
      SELECT prev.cuisine AS cuisine, prev.item AS item,
             prev.prevalence - (sums.s - prev.prevalence) / (sums.k - 1) AS rel_prevalence
      FROM prev JOIN sums ON prev.item = sums.item
      """,
      "recipes" -> tiny.select("id", "cuisine"),
      "ex" -> exploded,
    )
  }

  test("fingerprints require at least two cuisines") {
    val one = tiny.filter($"cuisine" === "A")
    intercept[IllegalArgumentException](Authenticity.fingerprints(spark, one))
  }

  test("an empty recipes DataFrame is rejected with a clear message") {
    val e = intercept[IllegalArgumentException](Authenticity.fingerprints(spark, tiny.limit(0)))
    assert(e.getMessage.contains("recipes DataFrame is empty"))
  }

  test("fingerprints build a dense, deterministically ordered matrix") {
    val fp = Authenticity.fingerprints(spark, tiny)
    assert(fp.cuisines == IndexedSeq("A", "B"))
    assert(fp.items == IndexedSeq("x", "y", "z"))
    assert(fp.matrix.length == 2 && fp.matrix.head.length == 3)
    assert(math.abs(fp.matrix(0)(0) - 0.1) < 1e-12) // A/x
    assert(math.abs(fp.matrix(1)(0) + 0.1) < 1e-12) // B/x
  }

  test("fingerprints on generated data have one row per cuisine") {
    val fp = Authenticity.fingerprints(spark, gen)
    assert(fp.cuisines.size == 26)
    assert(fp.matrix.forall(_.length == fp.items.size))
  }

  test("authenticity separates distinctive items: soy sauce marks East Asia") {
    val fp = Authenticity.fingerprints(spark, gen)
    val soyIdx = fp.items.indexOf("soy sauce")
    assert(soyIdx >= 0)
    def rel(c: String) = fp.matrix(fp.cuisines.indexOf(c))(soyIdx)
    assert(rel("Japanese") > 0.2)
    assert(rel("Korean") > 0.2)
    assert(rel("French") < 0.05)
  }
}
